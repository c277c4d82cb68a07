//! End-to-end correctness: every scheme must produce exactly the reference
//! join output (count and checksum) for every supported condition under a
//! variety of skew patterns.

mod common;

use common::*;
use ewh::core::{IneqOp, JoinCondition, JoinMatrix, Key, SchemeKind};
use ewh::exec::{run_operator, OperatorConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Key generators exercising the skew taxonomy of the paper: none (uniform),
/// redistribution skew (heavy hitters), and the segmented JPS pattern.
fn patterns(n: usize, seed: u64) -> Vec<(&'static str, Vec<Key>)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let uniform: Vec<Key> = (0..n).map(|_| rng.gen_range(0..n as i64)).collect();
    let mut heavy = uniform.clone();
    for h in heavy.iter_mut().take(n / 3) {
        *h = 777; // one heavy hitter (redistribution skew)
    }
    let mut segmented: Vec<Key> = (0..n / 5)
        .map(|_| rng.gen_range(0..n as i64 / 30))
        .collect();
    segmented.extend((0..4 * n / 5).map(|_| rng.gen_range(8 * n as i64..16 * n as i64)));
    vec![
        ("uniform", uniform),
        ("heavy_hitter", heavy),
        ("segmented", segmented),
    ]
}

fn conditions() -> Vec<JoinCondition> {
    vec![
        JoinCondition::Equi,
        JoinCondition::Band { beta: 0 },
        JoinCondition::Band { beta: 3 },
        JoinCondition::Inequality(IneqOp::Lt),
        JoinCondition::Inequality(IneqOp::Ge),
        JoinCondition::EquiBand { shift: 32, beta: 3 },
    ]
}

#[test]
fn all_schemes_match_reference_on_all_conditions_and_skews() {
    let n = 2500;
    for (pname, keys1) in patterns(n, 1) {
        for (qname, keys2) in patterns(n, 2) {
            for cond in conditions() {
                // EquiBand needs non-negative keys; patterns are.
                let reference = JoinMatrix::new(keys1.clone(), keys2.clone(), cond).output_count();
                let (r1, r2) = (tuples(&keys1), tuples(&keys2));
                let cfg = OperatorConfig {
                    j: 6,
                    threads: 2,
                    ..Default::default()
                };
                let mut checksums = Vec::new();
                for kind in [SchemeKind::Ci, SchemeKind::Csi, SchemeKind::Csio] {
                    let run = run_operator(test_rt(), kind, &r1, &r2, &cond, &cfg);
                    assert_eq!(
                        run.join.output_total, reference,
                        "{kind} {cond:?} on {pname}x{qname}"
                    );
                    checksums.push(run.join.checksum);
                }
                assert!(
                    checksums.windows(2).all(|w| w[0] == w[1]),
                    "checksum mismatch for {cond:?} on {pname}x{qname}"
                );
            }
        }
    }
}

#[test]
fn empty_and_degenerate_relations() {
    let cfg = OperatorConfig {
        j: 4,
        threads: 2,
        ..Default::default()
    };
    let cond = JoinCondition::Band { beta: 2 };
    let some = tuples(&(0..100).collect::<Vec<Key>>());

    for kind in [SchemeKind::Ci, SchemeKind::Csi, SchemeKind::Csio] {
        // Empty x non-empty.
        let run = run_operator(test_rt(), kind, &[], &some, &cond, &cfg);
        assert_eq!(run.join.output_total, 0, "{kind} empty left");
        let run = run_operator(test_rt(), kind, &some, &[], &cond, &cfg);
        assert_eq!(run.join.output_total, 0, "{kind} empty right");
        // Single tuples.
        let one = tuples(&[5]);
        let run = run_operator(test_rt(), kind, &one, &one, &cond, &cfg);
        assert_eq!(run.join.output_total, 1, "{kind} singleton");
    }
}

#[test]
fn duplicate_only_relations() {
    // All keys identical: the equi-join degenerates to a full cross product.
    let n = 400u64;
    let keys = vec![42i64; n as usize];
    let (r1, r2) = (tuples(&keys), tuples(&keys));
    let cfg = OperatorConfig {
        j: 4,
        threads: 2,
        ..Default::default()
    };
    for kind in [SchemeKind::Ci, SchemeKind::Csi, SchemeKind::Csio] {
        let run = run_operator(test_rt(), kind, &r1, &r2, &JoinCondition::Equi, &cfg);
        assert_eq!(run.join.output_total, n * n, "{kind}");
    }
}

#[test]
fn negative_keys_work_for_non_composite_conditions() {
    let mut rng = SmallRng::seed_from_u64(9);
    let k1: Vec<Key> = (0..1500).map(|_| rng.gen_range(-2000..2000)).collect();
    let k2: Vec<Key> = (0..1500).map(|_| rng.gen_range(-2000..2000)).collect();
    for cond in [
        JoinCondition::Band { beta: 4 },
        JoinCondition::Equi,
        JoinCondition::Inequality(IneqOp::Le),
    ] {
        let reference = JoinMatrix::new(k1.clone(), k2.clone(), cond).output_count();
        let cfg = OperatorConfig {
            j: 5,
            threads: 2,
            ..Default::default()
        };
        for kind in [SchemeKind::Ci, SchemeKind::Csi, SchemeKind::Csio] {
            let run = run_operator(test_rt(), kind, &tuples(&k1), &tuples(&k2), &cond, &cfg);
            assert_eq!(run.join.output_total, reference, "{kind} {cond:?}");
        }
    }
}

#[test]
fn results_are_deterministic_per_seed() {
    let mut rng = SmallRng::seed_from_u64(3);
    let k1: Vec<Key> = (0..2000).map(|_| rng.gen_range(0..500)).collect();
    let (r1, r2) = (tuples(&k1), tuples(&k1));
    let cond = JoinCondition::Band { beta: 1 };
    let cfg = OperatorConfig {
        j: 8,
        threads: 2,
        seed: 77,
        ..Default::default()
    };
    let a = run_operator(test_rt(), SchemeKind::Csio, &r1, &r2, &cond, &cfg);
    let b = run_operator(test_rt(), SchemeKind::Csio, &r1, &r2, &cond, &cfg);
    assert_eq!(a.join.output_total, b.join.output_total);
    assert_eq!(a.join.per_worker_input, b.join.per_worker_input);
    assert_eq!(a.join.network_tuples, b.join.network_tuples);
    assert_eq!(a.build.est_max_weight, b.build.est_max_weight);
}
