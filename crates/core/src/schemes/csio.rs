//! CSIO — the paper's equi-weight histogram scheme (§II-C, §III, §IV).
//!
//! Chains the three histogram stages and wraps the result into a routable
//! [`PartitionScheme`]. The measured wall-clock of the histogram algorithm
//! (everything after the raw samples exist) is recorded in
//! [`BuildInfo::hist_secs`]; the relation scans that feed it are charged by
//! the execution engine's stats-time model via `stats_scan_tuples`.

use std::time::Instant;

use ewh_sampling::KeyedCounts;

use crate::histogram::{
    censuses, coarsen_sample_matrix, regionalize_with_threads, sample_matrix_from_stats,
    HistogramParams, SideStats,
};
use crate::{
    BuildInfo, CostModel, GridRouter, JoinCondition, Key, PartitionScheme, Router, SchemeKind,
};

/// Builds the CSIO scheme over the two key columns.
pub fn build_csio(
    r1_keys: &[Key],
    r2_keys: &[Key],
    cond: &JoinCondition,
    cost: &CostModel,
    params: &HistogramParams,
) -> PartitionScheme {
    let (d1, d2equi) = censuses(r1_keys, r2_keys, params.threads, KeyedCounts::census);
    build_csio_from_stats(
        SideStats::relation(&d1),
        SideStats::relation(&d2equi),
        cond,
        cost,
        params,
    )
}

/// Builds the CSIO scheme from the two sides' statistics — all it reads.
pub fn build_csio_from_stats(
    s1: SideStats<'_>,
    s2: SideStats<'_>,
    cond: &JoinCondition,
    cost: &CostModel,
    params: &HistogramParams,
) -> PartitionScheme {
    let (n1, n2) = (s1.tuples, s2.tuples);

    // Stage 1 includes the sampling scans; the histogram-algorithm clock of
    // Table V starts once samples exist, i.e. at coarsening. Sampling-side
    // data-structure time (bucket mapping of so points) is O(so log ns) and
    // included in stage 1 here; it is negligible and the split matches how
    // the paper separates "collecting statistics" from "histogram algorithm".
    let ms = sample_matrix_from_stats(s1, s2, cond, params);

    let hist_start = Instant::now();
    let mc = coarsen_sample_matrix(
        &ms,
        cond,
        cost,
        params.nc(),
        params.coarsen_iters,
        params.monotonic,
    );
    let reg = regionalize_with_threads(&mc, params.j, params.baseline_bsp, params.threads);
    let hist_secs = hist_start.elapsed().as_secs_f64();

    let router = GridRouter::with_blocks(
        mc.row_bounds.clone(),
        mc.col_bounds.clone(),
        &reg.rects,
        &reg.shapes,
    );

    PartitionScheme {
        kind: SchemeKind::Csio,
        regions: reg.regions,
        router: Router::Grid(router),
        build: BuildInfo {
            ns: ms.n_rows().max(ms.n_cols()),
            nc: mc.n_rows().max(mc.n_cols()),
            si: ms.si,
            so: ms.so,
            m_est: ms.m,
            est_max_weight: reg.est_max_weight,
            delta: reg.delta,
            hist_secs,
            // One shared scan of both inputs plus the d2equi/S1 pass
            // (§VI-D): |d2equi| ≤ n2 distinct keys plus a pass over R1.
            stats_scan_tuples: (n1 + n2) + (ms.d2equi_distinct + n1),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn uniform(n: usize, mul: i64, modulo: i64) -> Vec<Key> {
        (0..n as i64).map(|i| (i * mul) % modulo).collect()
    }

    fn route_meet(s: &PartitionScheme, k1: Key, k2: Key, rng: &mut SmallRng) -> usize {
        let mut a = Vec::new();
        let mut b = Vec::new();
        s.router.route_r1(k1, rng, &mut a);
        s.router.route_r2(k2, rng, &mut b);
        a.iter().filter(|x| b.contains(x)).count()
    }

    #[test]
    fn every_matching_pair_meets_exactly_once() {
        let r1 = uniform(6000, 7, 6000);
        let r2 = uniform(6000, 11, 6000);
        let cond = JoinCondition::Band { beta: 3 };
        let params = HistogramParams {
            j: 8,
            ..Default::default()
        };
        let s = build_csio(&r1, &r2, &cond, &CostModel::band(), &params);
        assert!(s.num_regions() <= 8 && s.num_regions() >= 2);

        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..3000 {
            let k1 = r1[rng.gen_range(0..r1.len())];
            let jr = cond.joinable_range(k1);
            let k2 = rng.gen_range(jr.lo..=jr.hi);
            assert_eq!(route_meet(&s, k1, k2, &mut rng), 1, "pair ({k1},{k2})");
        }
    }

    #[test]
    fn routing_is_consistent_with_region_rectangles() {
        let r1 = uniform(4000, 3, 4000);
        let r2 = uniform(4000, 5, 4000);
        let cond = JoinCondition::Band { beta: 1 };
        let params = HistogramParams {
            j: 6,
            ..Default::default()
        };
        let s = build_csio(&r1, &r2, &cond, &CostModel::band(), &params);

        // Every region must be a candidate rectangle (it covers at least one
        // candidate cell, so its corner ranges satisfy the condition check).
        for r in &s.regions {
            assert!(
                cond.candidate(&r.rows, &r.cols),
                "non-candidate region {r:?}"
            );
        }

        // The router's meet count must equal the number of regions whose
        // rectangle contains the pair (0 or 1, since regions are disjoint).
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..2000 {
            let k1 = rng.gen_range(-100..4100i64);
            let k2 = rng.gen_range(-100..4100i64);
            let expect = s
                .regions
                .iter()
                .filter(|r| r.rows.contains(k1) && r.cols.contains(k2))
                .count();
            assert!(expect <= 1, "regions overlap at ({k1},{k2})");
            assert_eq!(route_meet(&s, k1, k2, &mut rng), expect, "({k1},{k2})");
        }
    }

    #[test]
    fn skew_shrinks_hot_regions() {
        // 30% of R1 and R2 concentrate on a narrow hot key segment (the X
        // dataset pattern): the join-product-skewed hot area produces ~95% of
        // the output, and CSIO must split it across regions instead of
        // handing it to one machine.
        let mut r1 = uniform(8000, 13, 8000);
        let mut r2 = uniform(8000, 17, 8000);
        for i in 0..2400 {
            r1[i] = 4000 + (i as i64) % 80;
            r2[i] = 4000 + (i as i64 * 7) % 80;
        }
        let cond = JoinCondition::Band { beta: 2 };
        let cost = CostModel::band();
        let params = HistogramParams {
            j: 8,
            ..Default::default()
        };
        let s = build_csio(&r1, &r2, &cond, &cost, &params);

        let weights: Vec<u64> = s
            .regions
            .iter()
            .map(|r| r.est_weight(&cost))
            .filter(|&w| w > 0)
            .collect();
        let max = *weights.iter().max().unwrap();
        let total: u64 = weights.iter().sum();
        // One region owning the hot segment would hold > 80% of the total;
        // an equi-weight split across 8 regions should stay well below 1/3.
        assert!(
            max <= total / 3,
            "hot segment not split: max {max} of {total}"
        );
    }

    #[test]
    fn equiband_composite_condition_routes_correctly() {
        let shift = 64;
        let mut rng = SmallRng::seed_from_u64(3);
        let r1: Vec<Key> = (0..5000)
            .map(|_| {
                JoinCondition::encode_composite(rng.gen_range(0..50), rng.gen_range(0..8), shift)
            })
            .collect();
        let r2: Vec<Key> = (0..5000)
            .map(|_| {
                JoinCondition::encode_composite(rng.gen_range(0..50), rng.gen_range(0..8), shift)
            })
            .collect();
        let cond = JoinCondition::EquiBand { shift, beta: 2 };
        let params = HistogramParams {
            j: 4,
            ..Default::default()
        };
        let s = build_csio(&r1, &r2, &cond, &CostModel::equi_band(), &params);
        for _ in 0..1000 {
            let k1 = r1[rng.gen_range(0..r1.len())];
            let k2 = r2[rng.gen_range(0..r2.len())];
            if cond.matches(k1, k2) {
                assert_eq!(route_meet(&s, k1, k2, &mut rng), 1);
            }
        }
    }

    #[test]
    fn empty_join_builds_empty_scheme() {
        let r1: Vec<Key> = (0..500).collect();
        let r2: Vec<Key> = (10_000..10_500).collect();
        let cond = JoinCondition::Equi;
        let params = HistogramParams {
            j: 4,
            ..Default::default()
        };
        let s = build_csio(&r1, &r2, &cond, &CostModel::band(), &params);
        assert_eq!(s.build.m_est, 0);
        // Read on the keys each side holds, no cell is a candidate: the
        // scheme has no region, and every tuple is routed nowhere.
        assert!(s.regions.is_empty());
        assert_eq!(s.build.so, 0);
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(route_meet(&s, 0, 10_000, &mut rng), 0);
    }

    #[test]
    fn build_info_diagnostics_are_populated() {
        let r1 = uniform(3000, 7, 3000);
        let r2 = uniform(3000, 5, 3000);
        let cond = JoinCondition::Band { beta: 2 };
        let params = HistogramParams {
            j: 4,
            ..Default::default()
        };
        let s = build_csio(&r1, &r2, &cond, &CostModel::band(), &params);
        assert!(s.build.ns > 0);
        assert!(s.build.nc > 0 && s.build.nc <= 8);
        assert!(s.build.so >= 1063);
        assert!(s.build.m_est > 0);
        assert!(s.build.est_max_weight > 0);
        assert!(s.build.est_max_weight <= s.build.delta);
        assert!(s.build.stats_scan_tuples > 6000);
    }
}
