use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::keyed::run_of;
use crate::{bernoulli_sample, Key, KeyedCounts};

/// An approximate equi-depth histogram over join keys, built from a uniform
/// sample (Chaudhuri, Motwani & Narasayya, SIGMOD 1998).
///
/// Buckets are half-open key ranges `[bounds[i], bounds[i+1])`; the outermost
/// bounds are `Key::MIN` / `Key::MAX` so every key maps to some bucket. The
/// histogram boundaries of the two relations form the `ns × ns` grid that
/// defines the sample matrix `MS` (§III-A). The open outer bounds are for
/// routing: a key a sample missed still finds its line. Candidacy reads the
/// keys a bucket actually holds — its range clamped to the relation's exact
/// key span — since on the open ranges every key beyond the other side's
/// last one is a candidate against its last bucket.
///
/// Because boundaries must be strictly increasing, heavily repeated keys can
/// collapse adjacent quantiles; the realized bucket count is then smaller
/// than requested (the paper's skew experiments rely on exactly this bucket
/// structure: a heavy hitter occupies a bucket of its own).
#[derive(Clone, Debug)]
pub struct EquiDepthHistogram {
    bounds: Vec<Key>,
}

impl EquiDepthHistogram {
    /// Builds a histogram with (at most) `buckets` buckets from a sample of
    /// keys. The sample is sorted in place.
    pub fn from_sample(sample: &mut [Key], buckets: usize) -> Self {
        assert!(buckets >= 1);
        if sample.is_empty() {
            return Self::single_bucket();
        }
        sample.sort_unstable();
        Self::from_ascending((1..buckets).map(|b| sample[b * sample.len() / buckets]))
    }

    /// The histogram [`from_sample`](Self::from_sample) builds over a whole
    /// relation, read off the relation's census: quantile `b·n/buckets` is a
    /// rank looked up through the prefix sums (one forward walk for all of
    /// them), so no sorted copy of the relation is made for it.
    pub fn from_counts(census: &KeyedCounts, buckets: usize) -> Self {
        assert!(buckets >= 1);
        let n = census.total() as usize;
        if n == 0 {
            return Self::single_bucket();
        }
        let mut i = 0;
        Self::from_ascending((1..buckets).map(|b| {
            i = run_of(census.prefix(), i, (b * n / buckets) as u64);
            census.keys()[i]
        }))
    }

    /// An approximate equi-depth histogram of a relation's key column — how
    /// a scheme that sorts nothing (CSI) turns a resident relation into
    /// buckets — and the input sample size `si` behind it:
    /// [`required_sample_size`] (bucket-size error 0.5, failure probability
    /// 0.01) keys drawn by Bernoulli sampling seeded with `seed`. When the
    /// required sample reaches the relation the rate clamps to 1, and the
    /// histogram is read off the relation's census.
    ///
    /// [`required_sample_size`]: Self::required_sample_size
    pub fn from_relation(keys: &[Key], buckets: usize, seed: u64) -> (Self, usize) {
        let n = keys.len();
        let si = Self::required_sample_size(n as u64, buckets, 0.5, 0.01).min(n);
        if si < n {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sample = bernoulli_sample(keys, si as f64 / n as f64, &mut rng);
            return (Self::from_sample(&mut sample, buckets), si);
        }
        (Self::from_counts(&KeyedCounts::census(keys), buckets), si)
    }

    /// Builds a degenerate single-bucket histogram (used when a relation is
    /// empty).
    pub fn single_bucket() -> Self {
        EquiDepthHistogram {
            bounds: vec![Key::MIN, Key::MAX],
        }
    }

    /// Builds directly from explicit interior boundaries (ascending). Used by
    /// tests and by schemes that compute exact quantiles.
    pub fn from_bounds(interior: &[Key]) -> Self {
        Self::from_ascending(interior.iter().copied())
    }

    /// Bounds from non-decreasing interior boundaries, repeats collapsed.
    fn from_ascending(interior: impl Iterator<Item = Key>) -> Self {
        let mut bounds = vec![Key::MIN];
        for b in interior {
            if b > *bounds.last().unwrap() {
                bounds.push(b);
            }
        }
        bounds.push(Key::MAX);
        EquiDepthHistogram { bounds }
    }

    /// Realized number of buckets.
    #[inline]
    pub fn num_buckets(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The bucket holding `k`.
    #[inline]
    pub fn bucket_of(&self, k: Key) -> usize {
        // First index with bound > k, minus one for the MIN sentinel. For
        // k == Key::MAX every bound compares <=, so clamp into the last bucket.
        (self.bounds.partition_point(|&b| b <= k) - 1).min(self.num_buckets() - 1)
    }

    /// Inclusive key range of bucket `i`.
    #[inline]
    pub fn bucket_range(&self, i: usize) -> (Key, Key) {
        let lo = self.bounds[i];
        let hi = if i + 2 == self.bounds.len() {
            Key::MAX
        } else {
            self.bounds[i + 1] - 1
        };
        (lo, hi)
    }

    /// All bounds including the MIN/MAX sentinels.
    #[inline]
    pub fn bounds(&self) -> &[Key] {
        &self.bounds
    }

    /// Sample size sufficient for bucket-size error `err · n/b` with failure
    /// probability `gamma` (Chaudhuri et al. 1998): `4·b·ln(2n/γ)/err²`. The
    /// paper instantiates this as `si = Θ(ns log n)`.
    pub fn required_sample_size(n: u64, buckets: usize, err: f64, gamma: f64) -> usize {
        assert!(err > 0.0 && gamma > 0.0);
        let ln = (2.0 * n as f64 / gamma).ln().max(1.0);
        (4.0 * buckets as f64 * ln / (err * err)).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn uniform_sample_gives_balanced_buckets() {
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 100_000u64;
        let keys: Vec<Key> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
        let b = 32;
        let si = EquiDepthHistogram::required_sample_size(n, b, 0.5, 0.01);
        let mut sample: Vec<Key> = (0..si)
            .map(|_| keys[rng.gen_range(0..keys.len())])
            .collect();
        let h = EquiDepthHistogram::from_sample(&mut sample, b);
        assert_eq!(h.num_buckets(), b);

        let mut counts = vec![0u64; h.num_buckets()];
        for &k in &keys {
            counts[h.bucket_of(k)] += 1;
        }
        let target = n as f64 / b as f64;
        for (i, &c) in counts.iter().enumerate() {
            // The paper's bound: within err·(n/b) of the target whp.
            assert!(
                (c as f64 - target).abs() <= 0.5 * target,
                "bucket {i}: {c} vs target {target}"
            );
        }
    }

    #[test]
    fn heavy_hitter_collapses_boundaries_not_correctness() {
        // 90% of keys are 42: most quantiles equal 42, so boundaries dedup.
        let mut sample: Vec<Key> = vec![42; 900];
        sample.extend(0..100);
        let h = EquiDepthHistogram::from_sample(&mut sample, 16);
        assert!(h.num_buckets() <= 16);
        assert!(h.num_buckets() >= 2);
        // Every key still maps to exactly one bucket.
        for k in [Key::MIN, -1, 0, 41, 42, 43, 99, Key::MAX] {
            let b = h.bucket_of(k);
            let (lo, hi) = h.bucket_range(b);
            assert!(
                lo <= k && k <= hi,
                "key {k} not in its bucket range [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn bucket_ranges_partition_the_key_space() {
        let mut sample: Vec<Key> = (0..1000).map(|i| i * 3).collect();
        let h = EquiDepthHistogram::from_sample(&mut sample, 8);
        let mut expected_lo = Key::MIN;
        for i in 0..h.num_buckets() {
            let (lo, hi) = h.bucket_range(i);
            assert_eq!(lo, expected_lo);
            assert!(lo <= hi);
            if i + 1 < h.num_buckets() {
                expected_lo = hi + 1;
            } else {
                assert_eq!(hi, Key::MAX);
            }
        }
    }

    #[test]
    fn empty_sample_single_bucket() {
        let h = EquiDepthHistogram::from_sample(&mut [], 10);
        assert_eq!(h.num_buckets(), 1);
        assert_eq!(h.bucket_of(12345), 0);
        assert_eq!(h.bucket_range(0), (Key::MIN, Key::MAX));
    }

    #[test]
    fn from_bounds_dedups() {
        let h = EquiDepthHistogram::from_bounds(&[10, 10, 20]);
        assert_eq!(h.num_buckets(), 3);
        assert_eq!(h.bucket_of(9), 0);
        assert_eq!(h.bucket_of(10), 1);
        assert_eq!(h.bucket_of(19), 1);
        assert_eq!(h.bucket_of(20), 2);
    }

    #[test]
    fn required_sample_size_grows_with_buckets() {
        let a = EquiDepthHistogram::required_sample_size(1_000_000, 100, 0.5, 0.01);
        let b = EquiDepthHistogram::required_sample_size(1_000_000, 1000, 0.5, 0.01);
        assert!(b > a);
        assert!(a > 100);
    }
}
