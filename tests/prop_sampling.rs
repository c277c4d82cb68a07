//! Property-based tests of the sampling substrate: Stream-Sample exactness
//! (the sweep under every join condition), equi-depth totality, keyed-count
//! range queries, and the sample matrix's independence of `threads`.

use ewh::core::histogram::build_sample_matrix;
use ewh::core::{HistogramParams, IneqOp, JoinCondition};
use ewh::sampling::{stream_sample, EquiDepthHistogram, Key, KeyedCounts};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The eight conditions of `join.rs`'s `CONDS`.
const CONDS: &[JoinCondition] = &[
    JoinCondition::Equi,
    JoinCondition::Band { beta: 0 },
    JoinCondition::Band { beta: 3 },
    JoinCondition::Inequality(IneqOp::Lt),
    JoinCondition::Inequality(IneqOp::Le),
    JoinCondition::Inequality(IneqOp::Gt),
    JoinCondition::Inequality(IneqOp::Ge),
    JoinCondition::EquiBand { shift: 16, beta: 2 },
];

fn brute_m(r1: &[Key], r2: &[Key], beta: i64) -> u64 {
    let mut m = 0;
    for &a in r1 {
        for &b in r2 {
            if (a - b).abs() <= beta {
                m += 1;
            }
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn stream_sample_m_is_exact(
        r1 in prop::collection::vec(-100i64..100, 0..150),
        r2 in prop::collection::vec(-100i64..100, 0..150),
        beta in 0i64..6,
    ) {
        let (d1, d2equi) = (KeyedCounts::census(&r1), KeyedCounts::census(&r2));
        let mut rng = SmallRng::seed_from_u64(7);
        let s = stream_sample(&d1, &d2equi, |k| (k - beta, k + beta), 64, &mut rng);
        prop_assert_eq!(s.m, brute_m(&r1, &r2, beta));
        // Every sampled pair satisfies the condition.
        for &(a, b) in &s.pairs {
            prop_assert!((a - b).abs() <= beta);
        }
        if s.m > 0 {
            prop_assert_eq!(s.pairs.len(), 64);
        } else {
            prop_assert!(s.pairs.is_empty());
        }
    }

    #[test]
    fn sweep_d2_equals_range_count_under_every_condition(
        r1 in prop::collection::vec(-40i64..200, 0..120),
        r2 in prop::collection::vec(-40i64..200, 0..120),
        extremes in 0usize..4,
    ) {
        let (mut r1, mut r2) = (r1, r2);
        // Saturating extremes: `Band` and `Lt` at `Key::MAX`, `Gt` at
        // `Key::MIN`, their neighbours, on either side or both.
        let edge = [Key::MIN, Key::MIN + 1, Key::MIN + 3, Key::MAX - 3, Key::MAX - 1, Key::MAX];
        if extremes & 1 != 0 {
            r1.extend(edge);
        }
        if extremes & 2 != 0 {
            r2.extend(edge);
        }
        let (d1, d2equi) = (KeyedCounts::census(&r1), KeyedCounts::census(&r2));
        for cond in CONDS {
            let joinable = |k| {
                let jr = cond.joinable_range(k);
                (jr.lo, jr.hi)
            };
            let swept: Vec<u64> = d2equi.range_counts(d1.keys(), joinable).collect();
            prop_assert_eq!(swept.len(), d1.num_distinct());
            let mut m = 0u64;
            for ((&k, c), &d2) in d1.keys().iter().zip(d1.counts()).zip(&swept) {
                let jr = cond.joinable_range(k);
                prop_assert_eq!(d2, d2equi.range_count(jr.lo, jr.hi), "{:?} d2({})", cond, k);
                m += c * d2;
            }
            let mut rng = SmallRng::seed_from_u64(7);
            let s = stream_sample(&d1, &d2equi, joinable, 16, &mut rng);
            prop_assert_eq!(s.m, m, "{:?}", cond);
            for &(a, b) in &s.pairs {
                prop_assert!(cond.joinable_range(a).contains(b), "{:?} ({}, {})", cond, a, b);
            }
        }
    }

    #[test]
    fn equi_depth_buckets_partition_all_keys(
        sample in prop::collection::vec(any::<i32>().prop_map(|x| x as Key), 0..400),
        buckets in 1usize..40,
    ) {
        let mut s = sample.clone();
        let h = EquiDepthHistogram::from_sample(&mut s, buckets);
        prop_assert!(h.num_buckets() >= 1 && h.num_buckets() <= buckets.max(1));
        for &k in sample.iter().chain([Key::MIN, Key::MAX, 0].iter()) {
            let b = h.bucket_of(k);
            prop_assert!(b < h.num_buckets());
            let (lo, hi) = h.bucket_range(b);
            prop_assert!(lo <= k && k <= hi, "key {} not in bucket [{}, {}]", k, lo, hi);
        }
        // Ranges tile the key space in order.
        let mut expect_lo = Key::MIN;
        for i in 0..h.num_buckets() {
            let (lo, hi) = h.bucket_range(i);
            prop_assert_eq!(lo, expect_lo);
            if i + 1 < h.num_buckets() {
                expect_lo = hi + 1;
            } else {
                prop_assert_eq!(hi, Key::MAX);
            }
        }
    }

    #[test]
    fn keyed_counts_range_queries_match_filter(
        keys in prop::collection::vec(-50i64..50, 0..200),
        lo in -60i64..60,
        span in 0i64..40,
    ) {
        let kc = KeyedCounts::census(&keys);
        let hi = lo + span;
        let expect = keys.iter().filter(|&&k| lo <= k && k <= hi).count() as u64;
        prop_assert_eq!(kc.range_count(lo, hi), expect);
        prop_assert_eq!(kc.total(), keys.len() as u64);
        // pick_in_range enumerates exactly the tuples in the range, in key order.
        let picks: Vec<Key> = (0..expect).map(|u| kc.pick_in_range(lo, hi, u)).collect();
        let mut sorted: Vec<Key> = keys.iter().copied().filter(|&k| lo <= k && k <= hi).collect();
        sorted.sort_unstable();
        prop_assert_eq!(picks, sorted);
    }
}

#[test]
fn the_sample_matrix_does_not_depend_on_threads() {
    // The censuses are the same multisets however many threads built them,
    // and nothing else enters the draw.
    let r1: Vec<Key> = (0..30_000).map(|i| (i * 7919) % 9000).collect();
    let r2: Vec<Key> = (0..24_000).map(|i| (i * 104_729) % 9000).collect();
    let cond = JoinCondition::Band { beta: 2 };
    let build = |threads| {
        let params = HistogramParams {
            j: 8,
            threads,
            ..Default::default()
        };
        build_sample_matrix(&r1, &r2, &cond, &params)
    };
    let one = build(1);
    assert!(one.m > 0 && !one.points.is_empty());
    for threads in [2, 3, 8] {
        let ms = build(threads);
        assert_eq!(ms.points, one.points, "threads={threads}");
        assert_eq!(ms.m, one.m);
        assert_eq!(ms.row_hist.bounds(), one.row_hist.bounds());
        assert_eq!(ms.col_hist.bounds(), one.col_hist.bounds());
        assert_eq!(ms.d2equi_distinct, one.d2equi_distinct);
    }
}
