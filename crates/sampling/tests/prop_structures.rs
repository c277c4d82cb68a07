//! Property-based tests of the sampling data structures.

use ewh_sampling::{EquiDepthHistogram, Key, KeyedCounts, WeightedReservoir};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn reservoir_size_is_min_of_capacity_and_positive_items(
        weights in prop::collection::vec(0u64..5, 0..80),
        cap in 1usize..20,
        seed in 0u64..10_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut r = WeightedReservoir::new(cap);
        for (i, &w) in weights.iter().enumerate() {
            r.offer(i, w, &mut rng);
        }
        let positive = weights.iter().filter(|&&w| w > 0).count();
        prop_assert_eq!(r.len(), positive.min(cap));
        // Selected items must all have positive weight.
        for (i, _) in r.into_items() {
            prop_assert!(weights[i] > 0);
        }
    }

    #[test]
    fn keyed_counts_pick_is_inverse_of_rank(
        keys in prop::collection::vec(-30i64..30, 1..120),
    ) {
        let kc = KeyedCounts::from_keys(keys.clone());
        let total = kc.total();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        for u in 0..total {
            prop_assert_eq!(kc.pick_in_range(Key::MIN, Key::MAX, u), sorted[u as usize]);
        }
    }

    #[test]
    fn equi_depth_bucket_count_bounded_by_distinct_keys(
        sample in prop::collection::vec(0i64..20, 1..200),
        buckets in 1usize..64,
    ) {
        let mut distinct = sample.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut s = sample.clone();
        let h = EquiDepthHistogram::from_sample(&mut s, buckets);
        // Interior boundaries come from sample values, so buckets can exceed
        // distinct values by at most the two MIN/MAX sentinel buckets.
        prop_assert!(h.num_buckets() <= distinct.len() + 1, "{} buckets for {} distinct", h.num_buckets(), distinct.len());
    }
}
