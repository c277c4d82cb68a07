//! Stream-Sample: uniform random sampling of the join *output* without
//! executing the join (§IV-A).
//!
//! Chaudhuri, Motwani & Narasayya (SIGMOD 1999) show that joining uniform
//! samples of the inputs does **not** give a uniform sample of the output;
//! their Stream-Sample algorithm fixes this for equi-joins. The paper extends
//! it to band and inequality joins: the *joinable set* of an `R1` tuple
//! becomes every `R2` tuple whose key falls in a contiguous range `jr(k1)`
//! determined by the join condition.
//!
//! The algorithm, on the censuses ([`KeyedCounts`]) of the two relations —
//! `d1` of `R1`, and `d2equi` of `R2`, which *is* the paper's `d2equi`:
//! 1. **Sweep.** For each distinct `R1` key, `d2(k1) = |joinable set|` comes
//!    from one monotone two-pointer pass over the two sorted key lists
//!    ([`KeyedCounts::range_counts`]); the running sum of
//!    `mult1(k1) · d2(k1)` is the cumulative weight of the join output in
//!    `(k1, k2)` order, and its total is the exact output size `m` — a
//!    byproduct the sample matrix needs anyway.
//! 2. **Draw.** `so` uniform ranks in `[0, m)`, sorted, are resolved by one
//!    walk over the cumulative weights: a rank lands on `k1` with probability
//!    proportional to its output contribution, and its offset inside `k1`'s
//!    block picks the partner uniformly within the joinable set (a key of
//!    `d2equi` with probability proportional to its multiplicity).
//!
//! Each emitted `(k1, k2)` pair is thus a uniform draw, with replacement,
//! from the join output enumerated in key order. The sample is a function of
//! the two censuses and the RNG alone: no partitioning of the input enters
//! it, so it does not depend on how many threads built the censuses.

use rand::Rng;

use crate::keyed::run_of;
use crate::{Key, KeyedCounts};

/// A uniform random sample of the join output (join keys only — the sample
/// feeds the sample matrix, it is never propagated in the query plan), plus
/// the exact output size.
#[derive(Clone, Debug)]
pub struct OutputSample {
    /// `(k1, k2)` join-key pairs, each a uniform draw from the join output,
    /// in ascending output order.
    pub pairs: Vec<(Key, Key)>,
    /// Exact join output size `m = Σ_{t1 ∈ R1} d2(t1.key)`.
    pub m: u64,
}

/// Stream-Sample over the censuses of `R1` (`d1`) and `R2` (`d2equi`).
/// `joinable` maps an `R1` key to the inclusive `R2` key range it joins with
/// (the join condition's joinable range); its endpoints should be
/// non-decreasing in the key, as they are for every monotonic condition —
/// see [`KeyedCounts::range_counts`] for what happens when they are not.
/// `O(distinct1 + distinct2 + so log n)`.
pub fn stream_sample(
    d1: &KeyedCounts,
    d2equi: &KeyedCounts,
    joinable: impl Fn(Key) -> (Key, Key),
    so: usize,
    rng: &mut impl Rng,
) -> OutputSample {
    // cum[i] = output tuples whose R1 key precedes d1.keys()[i].
    let mut cum = Vec::with_capacity(d1.num_distinct() + 1);
    let mut m = 0u64;
    cum.push(m);
    for (d2, &c) in d2equi.range_counts(d1.keys(), &joinable).zip(d1.counts()) {
        m += c * d2;
        cum.push(m);
    }
    if m == 0 {
        return OutputSample {
            pairs: Vec::new(),
            m,
        };
    }
    let mut ranks: Vec<u64> = (0..so).map(|_| rng.gen_range(0..m)).collect();
    ranks.sort_unstable();
    let mut i = 0;
    let pairs = ranks
        .into_iter()
        .map(|rank| {
            i = run_of(&cum, i, rank);
            let k1 = d1.keys()[i];
            let (lo, hi) = joinable(k1);
            let d2 = (cum[i + 1] - cum[i]) / d1.counts()[i];
            (k1, d2equi.pick_in_range(lo, hi, (rank - cum[i]) % d2))
        })
        .collect();
    OutputSample { pairs, m }
}

/// The key census of the join *output* when each output tuple carries its
/// `R1` key — exact, without executing the join: key `k1` appears
/// `mult1(k1) · d2(k1)` times, the products [`stream_sample`] accumulates
/// into its cumulative weights. `O(distinct1 + distinct2)`; counts saturate.
pub fn join_census_r1(
    d1: &KeyedCounts,
    d2equi: &KeyedCounts,
    joinable: impl Fn(Key) -> (Key, Key),
) -> KeyedCounts {
    let counts = d2equi
        .range_counts(d1.keys(), &joinable)
        .zip(d1.counts())
        .map(|(d2, &c)| c.saturating_mul(d2))
        .collect();
    KeyedCounts::from_runs(d1.keys().to_vec(), counts)
}

/// The key census of the join output when each output tuple carries its
/// `R2` key: key `k2` appears `mult2(k2) · |{t1 : k2 ∈ joinable(t1.key)}|`
/// times. The partner counts come from one range-add sweep — every distinct
/// `R1` key adds its multiplicity over the span of `d2equi`'s distinct keys
/// it joins with, and a running sum reads the totals off.
/// `O(distinct1 + distinct2)`; counts saturate.
pub fn join_census_r2(
    d1: &KeyedCounts,
    d2equi: &KeyedCounts,
    joinable: impl Fn(Key) -> (Key, Key),
) -> KeyedCounts {
    // opens[i] / closes[i]: R1 tuples whose span starts / ended at key i.
    let n = d2equi.num_distinct();
    let (mut opens, mut closes) = (vec![0u64; n + 1], vec![0u64; n + 1]);
    for ((a, b), &c) in d2equi.range_spans(d1.keys(), &joinable).zip(d1.counts()) {
        if a < b {
            opens[a] = opens[a].saturating_add(c);
            closes[b] = closes[b].saturating_add(c);
        }
    }
    let mut partners = 0u64;
    let counts = (0..n)
        .map(|i| {
            // Saturated sums only ever over-count a census already at the cap.
            partners = partners.saturating_add(opens[i]).saturating_sub(closes[i]);
            partners.saturating_mul(d2equi.counts()[i])
        })
        .collect();
    KeyedCounts::from_runs(d2equi.keys().to_vec(), counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ks::{chi_square, chi_square_critical};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Censuses, then the sampler, seeded.
    fn sample(
        r1: &[Key],
        r2: &[Key],
        joinable: impl Fn(Key) -> (Key, Key),
        so: usize,
        seed: u64,
    ) -> OutputSample {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (d1, d2equi) = (KeyedCounts::census(r1), KeyedCounts::census(r2));
        stream_sample(&d1, &d2equi, joinable, so, &mut rng)
    }

    /// Brute-force join output for verification.
    fn exact_join(r1: &[Key], r2: &[Key], joinable: impl Fn(Key) -> (Key, Key)) -> Vec<(Key, Key)> {
        let mut out = Vec::new();
        for &a in r1 {
            let (lo, hi) = joinable(a);
            for &b in r2 {
                if lo <= b && b <= hi {
                    out.push((a, b));
                }
            }
        }
        out
    }

    #[test]
    fn m_is_exact_for_band_join() {
        let r1: Vec<Key> = vec![1, 2, 2, 5, 9, 9, 9];
        let r2: Vec<Key> = vec![0, 2, 3, 3, 8, 10];
        let beta = 1;
        let jr = |k: Key| (k - beta, k + beta);
        let s = sample(&r1, &r2, jr, 100, 1);
        assert_eq!(s.m as usize, exact_join(&r1, &r2, jr).len());
        assert_eq!(s.pairs.len(), 100);
        // Every sampled pair must satisfy the join condition.
        for &(a, b) in &s.pairs {
            assert!((a - b).abs() <= beta, "({a},{b}) violates band");
        }
    }

    #[test]
    fn empty_output_gives_empty_sample() {
        let r1: Vec<Key> = vec![0, 1, 2];
        let r2: Vec<Key> = vec![100, 200];
        let jr = |k: Key| (k - 1, k + 1);
        let s = sample(&r1, &r2, jr, 50, 2);
        assert_eq!(s.m, 0);
        assert!(s.pairs.is_empty());
    }

    #[test]
    fn sample_is_uniform_over_the_join_output() {
        // Skewed multiplicities on both sides so the test is non-trivial:
        // joining input samples (the naive approach the paper rules out)
        // would NOT be uniform here.
        let mut r1: Vec<Key> = Vec::new();
        for i in 0..20 {
            for _ in 0..(1 + (i % 4) * 3) {
                r1.push(i);
            }
        }
        let mut r2: Vec<Key> = Vec::new();
        for j in 0..20 {
            for _ in 0..(1 + (j % 5) * 2) {
                r2.push(j);
            }
        }
        let jr = |k: Key| (k - 2, k + 2);
        let exact = exact_join(&r1, &r2, jr);
        let m = exact.len() as u64;

        // Count exact output multiplicity per (k1, k2) pair.
        let mut pair_count = std::collections::HashMap::new();
        for p in &exact {
            *pair_count.entry(*p).or_insert(0u64) += 1;
        }
        let categories: Vec<((Key, Key), u64)> = {
            let mut v: Vec<_> = pair_count.into_iter().collect();
            v.sort_unstable();
            v
        };

        let so = 40_000;
        let s = sample(&r1, &r2, jr, so, 33);
        assert_eq!(s.m, m);

        let mut observed = vec![0u64; categories.len()];
        let index: std::collections::HashMap<(Key, Key), usize> = categories
            .iter()
            .enumerate()
            .map(|(i, (p, _))| (*p, i))
            .collect();
        for p in &s.pairs {
            observed[*index.get(p).expect("sampled pair not in exact output")] += 1;
        }
        let expected: Vec<f64> = categories
            .iter()
            .map(|(_, c)| so as f64 * *c as f64 / m as f64)
            .collect();
        let chi = chi_square(&observed, &expected);
        let crit = chi_square_critical(categories.len() - 1);
        assert!(
            chi < crit,
            "χ² = {chi} > {crit}: sample not uniform over output"
        );
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        let r1: Vec<Key> = (0..300).collect();
        let r2: Vec<Key> = (0..300).collect();
        let jr = |k: Key| (k, k);
        let a = sample(&r1, &r2, jr, 500, 7);
        assert_eq!(a.pairs, sample(&r1, &r2, jr, 500, 7).pairs);
        assert_ne!(
            a.pairs,
            sample(&r1, &r2, jr, 500, 8).pairs,
            "different seeds should differ"
        );
    }

    #[test]
    fn inequality_join_ranges_work() {
        // a < b join: joinable range is (a, MAX].
        let r1: Vec<Key> = vec![1, 5, 9];
        let r2: Vec<Key> = vec![2, 4, 6, 8, 10];
        let jr = |k: Key| (k + 1, Key::MAX);
        let s = sample(&r1, &r2, jr, 200, 5);
        // d2: 1→5, 5→3, 9→1 ⇒ m = 9.
        assert_eq!(s.m, 9);
        for &(a, b) in &s.pairs {
            assert!(a < b);
        }
    }
}
