//! Integration tests of the three-stage histogram pipeline: the paper's
//! lemmas and accuracy claims at realistic (scaled) sizes.

mod common;

use common::*;
use ewh::core::histogram::{build_sample_matrix, coarsen_sample_matrix, regionalize};
use ewh::core::{CostModel, HistogramParams, JoinCondition, Key, SchemeKind, Tuple};
use ewh::exec::{run_operator, OperatorConfig};
use ewh::tiling::{validate_partition, Rect};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn skewed_keys(n: usize, seed: u64) -> Vec<Key> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if i % 4 == 0 {
                rng.gen_range(0..n as i64 / 40) // hot head
            } else {
                rng.gen_range(0..n as i64)
            }
        })
        .collect()
}

#[test]
fn lemma_3_1_holds_across_j_and_conditions() {
    let n = 30_000;
    let k1 = skewed_keys(n, 1);
    let k2 = skewed_keys(n, 2);
    let cost = CostModel::band();
    for cond in [
        JoinCondition::Band { beta: 2 },
        JoinCondition::Band { beta: 8 },
    ] {
        for j in [4usize, 8, 16] {
            let params = HistogramParams {
                j,
                ..Default::default()
            };
            let ms = build_sample_matrix(&k1, &k2, &cond, &params);
            if ms.m < n as u64 {
                continue; // lemma premise m >= n
            }
            let sigma = ms.max_cell_weight(&cost);
            let w_opt = cost.weight(2 * n as u64, ms.m) / j as u64;
            assert!(
                sigma <= w_opt / 2 + w_opt / 10,
                "{cond:?} j={j}: sigma {sigma} vs wOPT/2 {}",
                w_opt / 2
            );
        }
    }
}

#[test]
fn regionalization_partition_is_valid_on_the_coarse_grid() {
    let k1 = skewed_keys(20_000, 3);
    let k2 = skewed_keys(20_000, 4);
    let cond = JoinCondition::Band { beta: 3 };
    let cost = CostModel::band();
    for j in [4usize, 8] {
        let params = HistogramParams {
            j,
            ..Default::default()
        };
        let ms = build_sample_matrix(&k1, &k2, &cond, &params);
        let mc = coarsen_sample_matrix(&ms, &cond, &cost, 2 * j, 4, true);
        let reg = regionalize(&mc, j, false);
        let rects: Vec<Rect> = reg
            .rects
            .iter()
            .map(|&(r0, r1, c0, c1)| Rect::new(r0 as u32, c0 as u32, r1 as u32, c1 as u32))
            .collect();
        validate_partition(&mc.grid, &rects, reg.delta)
            .unwrap_or_else(|e| panic!("j={j}: invalid partition: {e}"));
        assert!(rects.len() <= j);
    }
}

#[test]
fn estimate_tracks_realized_weight_within_15_percent() {
    // Fig 4h's accuracy claim (paper: within 6%; we allow sampling slack at
    // our much smaller scale).
    let k1 = skewed_keys(40_000, 5);
    let k2 = skewed_keys(40_000, 6);
    let cond = JoinCondition::Band { beta: 2 };
    let tup = |ks: &[Key]| -> Vec<Tuple> {
        ks.iter()
            .enumerate()
            .map(|(i, &k)| Tuple::new(k, i as u64))
            .collect()
    };
    let cfg = OperatorConfig {
        j: 8,
        threads: 2,
        ..Default::default()
    };
    let run = run_operator(
        test_rt(),
        SchemeKind::Csio,
        &tup(&k1),
        &tup(&k2),
        &cond,
        &cfg,
    );
    let est = run.build.est_max_weight as f64;
    let real = run.join.max_weight_milli as f64;
    let err = (est - real).abs() / real;
    assert!(
        err < 0.15,
        "estimate off by {:.1}% (est {est}, real {real})",
        err * 100.0
    );
}

#[test]
fn csio_dominates_both_baselines_under_mixed_skew() {
    // The headline claim: on a cost-balanced skewed join CSIO's realized max
    // weight beats both CI (input replication) and CSI (JPS).
    let n = 40_000;
    let k1 = skewed_keys(n, 7);
    let k2 = skewed_keys(n, 8);
    let cond = JoinCondition::Band { beta: 4 };
    let tup = |ks: &[Key]| -> Vec<Tuple> {
        ks.iter()
            .enumerate()
            .map(|(i, &k)| Tuple::new(k, i as u64))
            .collect()
    };
    let cfg = OperatorConfig {
        j: 16,
        threads: 2,
        ..Default::default()
    };
    let (r1, r2) = (tup(&k1), tup(&k2));
    let ci = run_operator(test_rt(), SchemeKind::Ci, &r1, &r2, &cond, &cfg);
    let csi = run_operator(test_rt(), SchemeKind::Csi, &r1, &r2, &cond, &cfg);
    let csio = run_operator(test_rt(), SchemeKind::Csio, &r1, &r2, &cond, &cfg);
    assert!(
        csio.join.max_weight_milli < ci.join.max_weight_milli,
        "CSIO {} !< CI {}",
        csio.join.max_weight_milli,
        ci.join.max_weight_milli
    );
    assert!(
        csio.join.max_weight_milli < csi.join.max_weight_milli,
        "CSIO {} !< CSI {}",
        csio.join.max_weight_milli,
        csi.join.max_weight_milli
    );
}

#[test]
fn nc_2j_is_at_least_as_good_as_nc_j() {
    // §III-D: nc = 2J lessens the grid-partitioning penalty vs nc = J.
    let k1 = skewed_keys(25_000, 9);
    let k2 = skewed_keys(25_000, 10);
    let cond = JoinCondition::Band { beta: 3 };
    let cost = CostModel::band();
    let j = 8;
    let est_for = |factor: usize| {
        let params = HistogramParams {
            j,
            nc_factor: factor,
            ..Default::default()
        };
        let ms = build_sample_matrix(&k1, &k2, &cond, &params);
        let mc = coarsen_sample_matrix(&ms, &cond, &cost, params.nc(), 4, true);
        regionalize(&mc, j, false).est_max_weight
    };
    let w1 = est_for(1);
    let w2 = est_for(2);
    // Allow a small tolerance: the stages are approximate, but 2J should
    // never be substantially worse.
    assert!(
        w2 as f64 <= 1.10 * w1 as f64,
        "nc=2J ({w2}) much worse than nc=J ({w1})"
    );
}

#[test]
fn baseline_bsp_and_monotonic_agree_end_to_end() {
    let k1 = skewed_keys(8_000, 11);
    let k2 = skewed_keys(8_000, 12);
    let cond = JoinCondition::Band { beta: 2 };
    let cost = CostModel::band();
    // Small j so the dense baseline (O(nc^4) space) stays cheap.
    let j = 3;
    let params = HistogramParams {
        j,
        ..Default::default()
    };
    let ms = build_sample_matrix(&k1, &k2, &cond, &params);
    let mc = coarsen_sample_matrix(&ms, &cond, &cost, 2 * j, 4, true);
    let mono = regionalize(&mc, j, false);
    let dense = regionalize(&mc, j, true);
    assert_eq!(mono.delta, dense.delta, "hierarchical optima must agree");
}

#[test]
fn rho_b_optimization_shrinks_ns_without_losing_correctness() {
    // Appendix A5: for m >> n, ns can shrink by sqrt(rho_B).
    let n = 20_000usize;
    let mut rng = SmallRng::seed_from_u64(13);
    // Dense key collisions so m ≈ 20n.
    let k1: Vec<Key> = (0..n).map(|_| rng.gen_range(0..n as i64 / 20)).collect();
    let k2: Vec<Key> = (0..n).map(|_| rng.gen_range(0..n as i64 / 20)).collect();
    let cond = JoinCondition::Equi;
    let plain = HistogramParams {
        j: 8,
        ..Default::default()
    };
    let opt = HistogramParams {
        j: 8,
        rho_b_opt: true,
        ..Default::default()
    };
    let ms_plain = build_sample_matrix(&k1, &k2, &cond, &plain);
    let ms_opt = build_sample_matrix(&k1, &k2, &cond, &opt);
    assert_eq!(ms_plain.m, ms_opt.m, "m is exact either way");
    if ms_plain.m > 2 * n as u64 {
        assert!(
            ms_opt.n_rows() < ms_plain.n_rows(),
            "rho_B opt should shrink ns ({} !< {})",
            ms_opt.n_rows(),
            ms_plain.n_rows()
        );
    }
}
