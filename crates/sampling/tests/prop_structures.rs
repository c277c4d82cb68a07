//! Property-based tests of the sampling data structures.

use std::collections::BTreeMap;

use ewh_sampling::{EquiDepthHistogram, Key, KeyedCounts};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn keyed_counts_pick_is_inverse_of_rank(
        keys in prop::collection::vec(-30i64..30, 1..120),
    ) {
        let kc = KeyedCounts::census(&keys);
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

    // The census over random key spans of 0 to 64 bits, based at
    // `Key::MIN` (keys above it), at 0 and at `Key::MAX` (keys below it),
    // from pools small and large enough to repeat keys or not, in random
    // or ascending order: every path of the kernel, each against a
    // `BTreeMap` count.
    #[test]
    fn census_of_any_span_equals_a_btreemap_count(
        bits in 0u32..=64,
        base in 0usize..3,
        n in 0usize..300,
        pool in 1usize..300,
        sorted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let offsets: Vec<u64> = (0..pool)
            .map(|_| rng.gen::<u64>().checked_shr(64 - bits).unwrap_or(0))
            .collect();
        let mut keys: Vec<Key> = (0..n)
            .map(|_| {
                let off = offsets[rng.gen_range(0..pool)] as Key;
                match base {
                    0 => Key::MIN.wrapping_add(off),
                    1 => off,
                    _ => Key::MAX.wrapping_sub(off),
                }
            })
            .collect();
        if sorted {
            keys.sort_unstable();
        }
        let mut naive = BTreeMap::new();
        for &k in &keys {
            *naive.entry(k).or_insert(0u64) += 1;
        }
        let census = KeyedCounts::census(&keys);
        prop_assert_eq!(census.keys(), naive.keys().copied().collect::<Vec<_>>());
        prop_assert_eq!(census.counts(), naive.values().copied().collect::<Vec<_>>());
        prop_assert_eq!(census.total(), n as u64);
    }
}
