//! Integration tests for the paper's operational extensions: the §VI-E
//! adaptive CI fallback, Appendix A5 heterogeneous clusters, and the cost
//! model calibration loop of §VI-A.

mod common;

use common::*;
use ewh::core::{CostModel, JoinCondition, JoinMatrix, Key, SchemeKind};
use ewh::exec::{run_operator, run_operator_adaptive, FallbackPolicy, OperatorConfig, OutputWork};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn adaptive_operator_decision_boundary() {
    let cfg = OperatorConfig {
        j: 4,
        threads: 2,
        ..Default::default()
    };
    let policy = FallbackPolicy {
        rho_threshold: 50.0,
    };

    // rho ≈ n/8 per distinct key with 8 keys: n = 1000 → rho = 125 > 50.
    let mut rng = SmallRng::seed_from_u64(1);
    let hot: Vec<Key> = (0..1000).map(|_| rng.gen_range(0..8)).collect();
    let run = run_operator_adaptive(
        test_rt(),
        &tuples(&hot),
        &tuples(&hot),
        &JoinCondition::Equi,
        &cfg,
        &policy,
    );
    assert!(run.fell_back);
    assert_eq!(run.kind, SchemeKind::Ci);
    // The fallback must still be exact.
    let expect = JoinMatrix::new(hot.clone(), hot.clone(), JoinCondition::Equi).output_count();
    assert_eq!(run.join.output_total, expect);

    // A selective join stays on CSIO.
    let cold: Vec<Key> = (0..1000).collect();
    let run = run_operator_adaptive(
        test_rt(),
        &tuples(&cold),
        &tuples(&cold),
        &JoinCondition::Equi,
        &cfg,
        &policy,
    );
    assert!(!run.fell_back);
    assert_eq!(run.kind, SchemeKind::Csio);
}

#[test]
fn heterogeneous_cluster_beats_naive_assignment() {
    let n = 30_000;
    let mut rng = SmallRng::seed_from_u64(2);
    let k1: Vec<Key> = (0..n).map(|_| rng.gen_range(0..n as i64)).collect();
    let k2: Vec<Key> = (0..n).map(|_| rng.gen_range(0..n as i64)).collect();
    let cond = JoinCondition::Band { beta: 3 };
    let (r1, r2) = (tuples(&k1), tuples(&k2));
    let caps = vec![4.0, 1.0, 1.0];

    let naive = OperatorConfig {
        j: 3,
        threads: 2,
        ..Default::default()
    };
    let aware = OperatorConfig {
        j: 3,
        threads: 2,
        j_regions: Some(12),
        capacities: Some(caps.clone()),
        ..Default::default()
    };
    let a = run_operator(test_rt(), SchemeKind::Csio, &r1, &r2, &cond, &naive);
    let b = run_operator(test_rt(), SchemeKind::Csio, &r1, &r2, &cond, &aware);
    assert_eq!(a.join.output_total, b.join.output_total);

    let makespan = |run: &ewh::exec::OperatorRun| -> f64 {
        run.join
            .per_worker_input
            .iter()
            .zip(&run.join.per_worker_output)
            .zip(&caps)
            .map(|((&i, &o), &c)| naive.cost.weight(i, o) as f64 / c)
            .fold(0.0, f64::max)
    };
    assert!(
        makespan(&b) < makespan(&a),
        "capacity-aware {} !< naive {}",
        makespan(&b),
        makespan(&a)
    );
}

#[test]
fn cost_model_calibration_closes_the_loop() {
    // §VI-A: run benchmarks, regress wi/wo, feed the model back. Generate
    // observations from the engine's own per-worker loads with a known
    // synthetic time law, recover the rates.
    let n = 10_000;
    let mut rng = SmallRng::seed_from_u64(3);
    let k: Vec<Key> = (0..n).map(|_| rng.gen_range(0..n as i64 / 10)).collect();
    let (r1, r2) = (tuples(&k), tuples(&k));
    let cfg = OperatorConfig {
        j: 8,
        threads: 2,
        ..Default::default()
    };
    let run = run_operator(
        test_rt(),
        SchemeKind::Csio,
        &r1,
        &r2,
        &JoinCondition::Equi,
        &cfg,
    );

    let (true_wi, true_wo) = (2.5e-6, 0.4e-6);
    let samples: Vec<(u64, u64, f64)> = run
        .join
        .per_worker_input
        .iter()
        .zip(&run.join.per_worker_output)
        .map(|(&i, &o)| (i, o, true_wi * i as f64 + true_wo * o as f64))
        .collect();
    let (wi, wo) = CostModel::calibrate(&samples).expect("regression solvable");
    assert!((wi - true_wi).abs() / true_wi < 1e-6);
    assert!((wo - true_wo).abs() / true_wo < 1e-6);
    // Normalized to wi = 1 the ratio matches the paper's style of reporting.
    let model = CostModel::from_rates(1.0, wo / wi);
    assert_eq!(model.wi_milli, 1000);
    assert_eq!(model.wo_milli, 160);
}

#[test]
fn count_and_touch_output_work_agree_on_counts() {
    let n = 5000;
    let mut rng = SmallRng::seed_from_u64(4);
    let k: Vec<Key> = (0..n).map(|_| rng.gen_range(0..500)).collect();
    let (r1, r2) = (tuples(&k), tuples(&k));
    let cond = JoinCondition::Band { beta: 1 };
    let base = OperatorConfig {
        j: 4,
        threads: 2,
        ..Default::default()
    };
    let touch = run_operator(test_rt(), SchemeKind::Csio, &r1, &r2, &cond, &base);
    let count_cfg = OperatorConfig {
        output_work: OutputWork::Count,
        ..base
    };
    let count = run_operator(test_rt(), SchemeKind::Csio, &r1, &r2, &cond, &count_cfg);
    assert_eq!(touch.join.output_total, count.join.output_total);
    // Two different folds over the same pairs: Touch XORs every pair's
    // payload, Count the tags of the tuples matched an odd number of times.
    assert_ne!(touch.join.checksum, 0);
    assert_ne!(count.join.checksum, 0);
    assert_ne!(count.join.checksum, touch.join.checksum);
    let batch_cfg = OperatorConfig {
        mode: ewh::exec::ExecMode::Batch,
        ..count_cfg
    };
    let batch = run_operator(test_rt(), SchemeKind::Csio, &r1, &r2, &cond, &batch_cfg);
    assert_eq!(batch.join.checksum, count.join.checksum);
}

#[test]
fn worst_case_overhead_stays_small_on_icd_joins() {
    // §VI-E: for input-dominated joins CSIO's overhead vs CSI is bounded
    // (paper: 1.04x; we allow 1.35x at this much smaller scale where fixed
    // sampling costs weigh relatively more).
    let n = 60_000;
    let k1: Vec<Key> = (0..n as i64).map(|i| 4 * i).collect();
    let mut rng = SmallRng::seed_from_u64(5);
    let k2: Vec<Key> = (0..n)
        .map(|_| 10 * rng.gen_range(0..n as i64 / 10))
        .collect();
    let cond = JoinCondition::Band { beta: 2 };
    let (r1, r2) = (tuples(&k1), tuples(&k2));
    let cfg = OperatorConfig {
        j: 16,
        threads: 2,
        ..Default::default()
    };
    let csi = run_operator(test_rt(), SchemeKind::Csi, &r1, &r2, &cond, &cfg);
    let csio = run_operator(test_rt(), SchemeKind::Csio, &r1, &r2, &cond, &cfg);
    let ratio = csio.total_sim_secs / csi.total_sim_secs;
    assert!(ratio < 1.35, "CSIO overhead {ratio:.2}x on an ICD join");
}
