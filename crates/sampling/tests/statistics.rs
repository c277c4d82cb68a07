//! Statistical validation of the sampling substrate: distributional
//! correctness under merging and skew — the properties Appendix A1 of the
//! paper relies on.

use ewh_sampling::ks::{chi_square, chi_square_critical, ks_critical, ks_statistic_uniform};
use ewh_sampling::{stream_sample, EquiDepthHistogram, Key, KeyedCounts, OutputSample};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The one sampler over the censuses of two key columns, seeded.
fn sample(
    r1: &[Key],
    r2: &[Key],
    joinable: impl Fn(Key) -> (Key, Key),
    so: usize,
    seed: u64,
) -> OutputSample {
    let (d1, d2equi) = (KeyedCounts::census(r1), KeyedCounts::census(r2));
    stream_sample(
        &d1,
        &d2equi,
        joinable,
        so,
        &mut SmallRng::seed_from_u64(seed),
    )
}

#[test]
fn stream_sample_is_uniform_over_output() {
    // Strong skew on both sides; the χ² test runs over per-k1 marginals.
    let mut r1: Vec<Key> = Vec::new();
    for k in 0..30 {
        for _ in 0..=(k % 7) * 4 {
            r1.push(k);
        }
    }
    let mut r2: Vec<Key> = Vec::new();
    for k in 0..30 {
        for _ in 0..=(k % 5) * 3 {
            r2.push(k);
        }
    }
    let beta = 2;
    let jr = |k: Key| (k - beta, k + beta);
    let d2equi = KeyedCounts::census(&r2);
    let d1 = KeyedCounts::census(&r1);

    let so = 30_000;
    let s = sample(&r1, &r2, jr, so, 42);

    // Expected marginal of k1 in a uniform output sample: mult1(k1)*d2(k1)/m.
    let mut expected = Vec::new();
    let mut observed = Vec::new();
    let mut index = std::collections::HashMap::new();
    for (&k, &c) in d1.keys().iter().zip(d1.counts()) {
        let d2 = d2equi.range_count(k - beta, k + beta);
        if c * d2 > 0 {
            index.insert(k, expected.len());
            expected.push(so as f64 * (c * d2) as f64 / s.m as f64);
            observed.push(0u64);
        }
    }
    for &(k1, _) in &s.pairs {
        observed[index[&k1]] += 1;
    }
    let chi = chi_square(&observed, &expected);
    let crit = chi_square_critical(expected.len() - 1);
    assert!(chi < crit, "k1 marginal not uniform: chi2 = {chi} > {crit}");
}

#[test]
fn stream_sample_positions_pass_ks_against_output_cdf() {
    // Map each sampled pair to its rank in the lexicographic enumeration of
    // the exact output; ranks must be ~U(0,1) after normalization.
    let r1: Vec<Key> = (0..60)
        .flat_map(|k| std::iter::repeat_n(k, (k % 4 + 1) as usize))
        .collect();
    let r2: Vec<Key> = (0..60)
        .flat_map(|k| std::iter::repeat_n(k, (k % 3 + 1) as usize))
        .collect();
    let jr = |k: Key| (k - 1, k + 1);
    let d2equi = KeyedCounts::census(&r2);
    let d1 = KeyedCounts::census(&r1);

    // Cumulative output count before each distinct k1.
    let mut cum = std::collections::HashMap::new();
    let mut acc = 0u64;
    for (&k, &c) in d1.keys().iter().zip(d1.counts()) {
        cum.insert(k, acc);
        acc += c * d2equi.range_count(k - 1, k + 1);
    }
    let m = acc;

    let s = sample(&r1, &r2, jr, 4000, 7);
    assert_eq!(s.m, m);
    // Positions: contribution of k1's block start plus a uniform draw inside
    // the block — approximate each sample by the middle of its (k1, k2) run.
    let positions: Vec<f64> = s
        .pairs
        .iter()
        .map(|&(k1, k2)| {
            let mult1 = d1.range_count(k1, k1);
            let before_k2 = d2equi.range_count(k1 - 1, k2 - 1);
            (cum[&k1] as f64 + mult1 as f64 * before_k2 as f64) / m as f64
        })
        .collect();
    let d = ks_statistic_uniform(&positions);
    // Block-start discretization adds slack; allow 3x the 1% critical value.
    assert!(d < 3.0 * ks_critical(positions.len(), 0.01), "KS d = {d}");
}

#[test]
fn equi_depth_error_bound_holds_with_prescribed_sample_size() {
    // Chaudhuri et al.: with si = 4 b ln(2n/γ)/err², every bucket size is
    // within err·(n/b) of n/b with probability ≥ 1-γ. Check empirically.
    let n = 200_000u64;
    let b = 50;
    let err = 0.5;
    let mut rng = SmallRng::seed_from_u64(13);
    let keys: Vec<Key> = (0..n).map(|_| rng.gen_range(0..100_000) as Key).collect();
    let si = EquiDepthHistogram::required_sample_size(n, b, err, 0.01).min(keys.len());
    let mut sample: Vec<Key> = (0..si)
        .map(|_| keys[rng.gen_range(0..keys.len())])
        .collect();
    let h = EquiDepthHistogram::from_sample(&mut sample, b);
    let mut counts = vec![0u64; h.num_buckets()];
    for &k in &keys {
        counts[h.bucket_of(k)] += 1;
    }
    let target = n as f64 / b as f64;
    for (i, &c) in counts.iter().enumerate() {
        assert!(
            (c as f64 - target).abs() <= err * target,
            "bucket {i}: {c} outside {target} ± {}",
            err * target
        );
    }
}

#[test]
fn inequality_joinable_ranges_in_stream_sample() {
    // a >= b: joinable range [MIN, a]; exact m = sum of ranks.
    let r1: Vec<Key> = (0..100).collect();
    let r2: Vec<Key> = (0..100).collect();
    let s = sample(&r1, &r2, |k| (Key::MIN, k), 500, 3);
    let expect: u64 = (1..=100).sum();
    assert_eq!(s.m, expect);
    for &(a, b) in &s.pairs {
        assert!(a >= b);
    }
}

#[test]
fn zero_and_one_sized_output_samples() {
    let (r1, r2): (Vec<Key>, Vec<Key>) = (vec![1, 2, 3], vec![2]);
    let s = sample(&r1, &r2, |k| (k, k), 0, 5);
    assert_eq!(s.m, 1);
    assert!(s.pairs.is_empty());
    let s = sample(&r1, &r2, |k| (k, k), 1, 5);
    assert_eq!(s.pairs, vec![(2, 2)]);
}
