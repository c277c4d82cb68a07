//! Property-based end-to-end tests: for arbitrary relations and conditions,
//! every scheme computes exactly the reference join.

mod common;

use common::*;
use ewh::core::{JoinCondition, Key, SchemeKind};
use ewh::exec::{run_operator, OperatorConfig, OutputWork};
use proptest::prelude::*;

fn reference(k1: &[Key], k2: &[Key], cond: &JoinCondition) -> u64 {
    let mut m = 0;
    for &a in k1 {
        for &b in k2 {
            if cond.matches(a, b) {
                m += 1;
            }
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn schemes_equal_nested_loop(
        k1 in keys_strategy(120, 200),
        k2 in keys_strategy(120, 200),
        cond in any_condition(),
        j in 1usize..7,
        seed in 0u64..1000,
    ) {
        let expect = reference(&k1, &k2, &cond);
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        let cfg = OperatorConfig {
            j,
            threads: 2,
            seed,
            output_work: OutputWork::Count,
            ..Default::default()
        };
        for kind in [SchemeKind::Ci, SchemeKind::Csi, SchemeKind::Csio] {
            let run = run_operator(test_rt(), kind, &r1, &r2, &cond, &cfg);
            prop_assert_eq!(run.join.output_total, expect, "{} {:?}", kind, cond);
        }
    }

    #[test]
    fn csio_matching_pairs_meet_exactly_once(
        k1 in keys_strategy(120, 150),
        k2 in keys_strategy(120, 150),
        beta in 0i64..5,
        j in 1usize..6,
    ) {
        prop_assume!(!k1.is_empty() && !k2.is_empty());
        let cond = JoinCondition::Band { beta };
        let scheme = ewh::core::build_csio(
            &k1,
            &k2,
            &cond,
            &ewh::core::CostModel::band(),
            &ewh::core::HistogramParams { j, ..Default::default() },
        );
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        use rand::SeedableRng;
        let mut a = Vec::new();
        let mut b = Vec::new();
        for &x in k1.iter().take(40) {
            for &y in k2.iter().take(40) {
                a.clear();
                b.clear();
                scheme.router.route_r1(x, &mut rng, &mut a);
                scheme.router.route_r2(y, &mut rng, &mut b);
                let meets = a.iter().filter(|r| b.contains(r)).count();
                if cond.matches(x, y) {
                    prop_assert_eq!(meets, 1, "pair ({}, {})", x, y);
                } else {
                    prop_assert!(meets <= 1, "regions overlap at ({}, {})", x, y);
                }
            }
        }
    }

    #[test]
    fn joinable_range_is_exact_and_monotone(
        cond in any_condition(),
        keys in prop::collection::vec(0i64..300, 1..60),
    ) {
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut prev: Option<ewh::core::KeyRange> = None;
        for &a in &sorted {
            let jr = cond.joinable_range(a);
            // Exactness against matches() over a window around a.
            for b in (a - 20).max(0)..a + 20 {
                prop_assert_eq!(cond.matches(a, b), jr.contains(b), "a={} b={}", a, b);
            }
            if let Some(p) = prev {
                prop_assert!(jr.lo >= p.lo && jr.hi >= p.hi, "staircase broken at {}", a);
            }
            prev = Some(jr);
        }
    }
}
