//! Property-based tests of the sampling data structures.

use ewh_sampling::{EquiDepthHistogram, Key, KeyedCounts};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

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
