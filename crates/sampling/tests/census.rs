//! The census and everything a scheme build reads off it, each against the
//! simple formulation it replaced: a `BTreeMap` count, the histogram over a
//! sorted copy of the relation, a `range_count` per key, the Bernoulli
//! histogram written out by hand — and the census of a join's output
//! against the output of the nested loop.

use std::collections::BTreeMap;

use ewh_sampling::{
    bernoulli_sample, join_census_r1, join_census_r2, stream_sample, EquiDepthHistogram, Key,
    KeyedCounts,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Key columns of every shape the census special-cases or could get wrong,
/// at sizes on both sides of the standard sort's small-slice tiers.
fn columns() -> Vec<(String, Vec<Key>)> {
    let mut rng = SmallRng::seed_from_u64(0xCE5);
    // The kernel-path shapes draw from their own stream, so the shapes
    // above them keep their keys.
    let mut paths_rng = SmallRng::seed_from_u64(0xCE6);
    let mut out = vec![("MIN/MAX".to_string(), vec![Key::MAX, Key::MIN, 0, Key::MAX])];
    for n in [0usize, 1, 2, 19, 20, 21, 255, 256, 257, 5000] {
        let random: Vec<Key> = (0..n).map(|_| rng.gen_range(-40..40)).collect();
        let distinct: Vec<Key> = (0..n as Key).map(|i| (i * 7919) % n as Key - 3).collect();
        let mut sorted = random.clone();
        sorted.sort_unstable();
        let reversed: Vec<Key> = sorted.iter().rev().copied().collect();
        let negative: Vec<Key> = random.iter().map(|k| k - 1_000_000).collect();
        let extremes: Vec<Key> = (0..n)
            .map(|i| [Key::MIN, Key::MAX, Key::MIN + 1, Key::MAX - 1, 0][i % 5])
            .collect();
        for (name, keys) in [
            ("random", random),
            ("all-equal", vec![-7; n]),
            ("all-distinct", distinct),
            ("pre-sorted", sorted),
            ("reverse-sorted", reversed),
            ("negative", negative),
            ("extremes", extremes),
        ] {
            out.push((format!("{name} n={n}"), keys));
        }
        // The census's kernel paths and their edges: unsorted spans just
        // under, at and over the dense cut (`span < 2n`) with both ends
        // present; `custkey << 16 | sp` over few customers, whose span is
        // wide and whose keys are few; wide and all distinct; and wide with
        // every key but the two ends clustered within a thousand.
        for span in [2 * n as Key - 1, 2 * n as Key, 2 * n as Key + 1] {
            let keys = (0..n)
                .map(|i| match i {
                    0 => 500 + span,
                    1 => 500,
                    _ => 500 + paths_rng.gen_range(0..=span.max(0)),
                })
                .collect();
            out.push((format!("span {span} n={n}"), keys));
        }
        let composite = (0..n)
            .map(|_| paths_rng.gen_range(0..40i64).pow(2) << 16 | paths_rng.gen_range(0..3i64))
            .collect();
        let wide_distinct = (0..n as Key)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as Key))
            .collect();
        let clustered = (0..n)
            .map(|i| match i {
                0 => 1 << 40,
                1 => 0,
                _ => (1 << 39) + paths_rng.gen_range(0..1000i64),
            })
            .collect();
        for (name, keys) in [
            ("composite", composite),
            ("wide-distinct", wide_distinct),
            ("wide-clustered", clustered),
        ] {
            out.push((format!("{name} n={n}"), keys));
        }
    }
    out
}

/// The census of a borrowed column (`census`, which is `census_of` its
/// keys) on every shape of `columns()`: sorted, reverse-sorted,
/// all-duplicate, extreme keys and empty among them, and each of the
/// kernel's paths (sorted, dense slots, a wide column sorted) on both sides
/// of its edges, prefix sums included.
#[test]
fn census_equals_a_btreemap_count() {
    for (name, keys) in columns() {
        let mut naive = BTreeMap::new();
        for &k in &keys {
            *naive.entry(k).or_insert(0u64) += 1;
        }
        let census = KeyedCounts::census(&keys);
        let expect_keys: Vec<Key> = naive.keys().copied().collect();
        let expect_counts: Vec<u64> = naive.values().copied().collect();
        assert_eq!(census.keys(), expect_keys, "{name}");
        assert_eq!(census.counts(), expect_counts, "{name}");
        assert_eq!(census.total(), keys.len() as u64, "{name}");
        assert_eq!(census.num_distinct(), naive.len(), "{name}");
        // The prefix sums, through the one public reader of them.
        for (i, &k) in expect_keys.iter().enumerate() {
            let upto: u64 = expect_counts[..=i].iter().sum();
            assert_eq!(census.range_count(Key::MIN, k), upto, "{name} key {k}");
        }
    }
}

#[test]
fn from_counts_bounds_equal_from_sample_over_the_sorted_relation() {
    // Heavy hitters collapse adjacent quantiles onto one key: the first
    // column is 90% one key, the second has a heavy key on each end.
    let mut heavy: Vec<Key> = vec![5; 180];
    heavy.extend(0..20);
    let mut two_ends: Vec<Key> = vec![Key::MIN; 40];
    two_ends.extend((0..30).map(|i| i * 3));
    two_ends.extend(vec![Key::MAX; 40]);
    let mut cols = columns();
    cols.push(("heavy".to_string(), heavy));
    cols.push(("two-ends".to_string(), two_ends));
    for (name, keys) in cols {
        if keys.len() > 300 {
            continue; // 1…n+3 bucket counts each: keep the product small
        }
        let census = KeyedCounts::census(&keys);
        for buckets in 1..=keys.len() + 3 {
            let expect = EquiDepthHistogram::from_sample(&mut keys.clone(), buckets);
            let got = EquiDepthHistogram::from_counts(&census, buckets);
            assert_eq!(got.bounds(), expect.bounds(), "{name} buckets={buckets}");
        }
    }
}

#[test]
fn a_relation_smaller_than_its_required_sample_is_read_off_the_census() {
    // si = n: the rate clamps to 1 and the quantiles are exact.
    let keys: Vec<Key> = (0..3000).map(|i| (i * 37) % 1000).collect();
    let expect = EquiDepthHistogram::from_sample(&mut keys.clone(), 64);
    let (hist, si) = EquiDepthHistogram::from_relation(&keys, 64, 9);
    assert_eq!(si, keys.len());
    assert_eq!(hist.bounds(), expect.bounds());
    let exact = EquiDepthHistogram::from_counts(&KeyedCounts::census(&keys), 64);
    assert_eq!(hist.bounds(), exact.bounds());
    let (hist, si) = EquiDepthHistogram::from_relation(&[], 64, 9);
    assert_eq!((hist.num_buckets(), si), (1, 0));
}

#[test]
fn bernoulli_path_draws_what_it_always_drew() {
    // si < n (CSI at p = 512 on 960 000 keys): size the sample, Bernoulli at
    // si/n from the seed, equi-depth over the draw — written out.
    let n = 960_000usize;
    let keys: Vec<Key> = (0..n as Key)
        .map(|i| (i * 2_654_435_761) % 96_001)
        .collect();
    let (p, seed) = (512, 236 ^ 0xC52);
    let si = EquiDepthHistogram::required_sample_size(n as u64, p, 0.5, 0.01);
    assert!(si < n, "premise: the required sample is a strict sample");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut drawn = bernoulli_sample(&keys, si as f64 / n as f64, &mut rng);
    let expect = EquiDepthHistogram::from_sample(&mut drawn, p);
    let (hist, got_si) = EquiDepthHistogram::from_relation(&keys, p, seed);
    assert_eq!(got_si, si);
    assert_eq!(hist.bounds(), expect.bounds());
    assert!(hist.num_buckets() > p / 2);
}

/// `d2` of every distinct `r1` key by the sweep, against a `range_count`
/// each, and the sampler's `m` against their weighted sum.
fn check_sweep(r1: &[Key], r2: &[Key], joinable: impl Fn(Key) -> (Key, Key), what: &str) {
    let (d1, d2equi) = (KeyedCounts::census(r1), KeyedCounts::census(r2));
    let swept: Vec<u64> = d2equi.range_counts(d1.keys(), &joinable).collect();
    let mut m = 0u64;
    for ((&k, &c), &d2) in d1.keys().iter().zip(d1.counts()).zip(&swept) {
        let (lo, hi) = joinable(k);
        assert_eq!(d2, d2equi.range_count(lo, hi), "{what}: d2({k})");
        m += c * d2;
    }
    let s = stream_sample(&d1, &d2equi, &joinable, 32, &mut SmallRng::seed_from_u64(1));
    assert_eq!(s.m, m, "{what}: m");
    assert_eq!(s.pairs.len(), if m == 0 { 0 } else { 32 }, "{what}");
    for &(k1, k2) in &s.pairs {
        let (lo, hi) = joinable(k1);
        assert!(lo <= k2 && k2 <= hi, "{what}: ({k1},{k2}) does not join");
        assert!(r1.contains(&k1) && r2.contains(&k2), "{what}: ({k1},{k2})");
    }
}

#[test]
fn sweep_counts_equal_a_range_count_per_key() {
    let mut rng = SmallRng::seed_from_u64(77);
    for round in 0..40 {
        let n = [0usize, 1, 7, 60, 300][round % 5];
        let mut r1: Vec<Key> = (0..n).map(|_| rng.gen_range(-50..50)).collect();
        let mut r2: Vec<Key> = (0..n + round).map(|_| rng.gen_range(-60..60)).collect();
        if round % 2 == 1 {
            // Saturating extremes on both sides.
            r1.extend([Key::MIN, Key::MIN + 1, Key::MAX - 1, Key::MAX]);
            r2.extend([Key::MIN, Key::MIN + 2, Key::MAX - 2, Key::MAX]);
        }
        let beta = (round % 4) as Key;
        let band = |k: Key| (k.saturating_sub(beta), k.saturating_add(beta));
        check_sweep(&r1, &r2, band, "band");
        check_sweep(&r1, &r2, |k| (k, k), "equi");
        check_sweep(&r1, &r2, |k| (k.saturating_add(1), Key::MAX), "lt");
        check_sweep(&r1, &r2, |k| (Key::MIN, k.saturating_sub(1)), "gt");
        // An empty joinable range (lo > hi) joins nothing.
        check_sweep(&r1, &r2, |k| (k.saturating_add(1), k), "empty");
    }
}

#[test]
fn non_monotone_joinable_ranges_still_count_exactly() {
    // Endpoints that decrease, jump about, or invert: the sweep's pointers
    // re-seat themselves, so `d2` and `m` stay exact.
    let mut rng = SmallRng::seed_from_u64(78);
    let r1: Vec<Key> = (0..400).map(|_| rng.gen_range(-50..50)).collect();
    let r2: Vec<Key> = (0..500).map(|_| rng.gen_range(-60..60)).collect();
    check_sweep(&r1, &r2, |k| (-k - 3, -k + 3), "mirrored band");
    check_sweep(&r1, &r2, |k| (-k, Key::MAX), "decreasing lower end");
    check_sweep(&r1, &r2, |k| (Key::MIN, -k), "decreasing upper end");
    let scramble = |k: Key| {
        let lo = (k * 37).rem_euclid(97) - 50;
        (lo, lo + (k * 11).rem_euclid(13) - 2)
    };
    check_sweep(&r1, &r2, scramble, "scrambled");
    // The brute-force output size, once, to pin `m` to more than the sweep.
    let (d1, d2equi) = (KeyedCounts::census(&r1), KeyedCounts::census(&r2));
    let brute = r1
        .iter()
        .map(|&a| {
            let (lo, hi) = scramble(a);
            r2.iter().filter(|&&b| lo <= b && b <= hi).count() as u64
        })
        .sum::<u64>();
    let s = stream_sample(&d1, &d2equi, scramble, 0, &mut SmallRng::seed_from_u64(1));
    assert_eq!(s.m, brute);
}

/// The eight join conditions the workspace tests everything on (`join.rs`'s
/// `CONDS`), spelled as the sampling crate sees a condition — a joinable
/// range — next to the pair predicate the range must agree with.
type Joinable = fn(Key) -> (Key, Key);
type Matches = fn(Key, Key) -> bool;
const EMPTY: (Key, Key) = (1, 0);
const CONDS: [(&str, Joinable, Matches); 8] = [
    ("equi", |k| (k, k), |a, b| a == b),
    ("band 0", |k| (k, k), |a, b| a == b),
    (
        "band 3",
        |k| (k.saturating_sub(3), k.saturating_add(3)),
        |a, b| a.abs_diff(b) <= 3,
    ),
    (
        "<",
        |k| k.checked_add(1).map_or(EMPTY, |lo| (lo, Key::MAX)),
        |a, b| a < b,
    ),
    ("<=", |k| (k, Key::MAX), |a, b| a <= b),
    (
        ">",
        |k| k.checked_sub(1).map_or(EMPTY, |hi| (Key::MIN, hi)),
        |a, b| a > b,
    ),
    (">=", |k| (Key::MIN, k), |a, b| a >= b),
    (
        "equi+band 2 (shift 16)",
        |k| {
            let p = k.rem_euclid(16);
            (
                k.saturating_sub(p.min(2)),
                k.saturating_add((15 - p).min(2)),
            )
        },
        |a, b| a.div_euclid(16) == b.div_euclid(16) && a.abs_diff(b) <= 2,
    ),
];

#[test]
fn census_join_equals_the_census_of_the_brute_force_join_output() {
    // Keys from the extremes and their neighbours plus a small dense domain,
    // random multiplicities: the census of the join output keyed by either
    // side, computed from the two input censuses, is the census of the
    // output the nested loop produces — tuple for tuple.
    let edge = [Key::MIN, Key::MIN + 1, -1, 0, 1, Key::MAX - 1, Key::MAX];
    let mut rng = SmallRng::seed_from_u64(0xCE5 ^ 23);
    for round in 0..60 {
        let mut draw = |dense: usize| -> Vec<Key> {
            let mut keys: Vec<Key> = Vec::new();
            for &k in &edge {
                keys.extend(std::iter::repeat_n(k, rng.gen_range(0..4)));
            }
            keys.extend((0..dense).map(|_| rng.gen_range(-20..40i64)));
            keys
        };
        let (r1, r2) = (draw(round % 7 * 9), draw(round % 5 * 11));
        let (d1, d2) = (KeyedCounts::census(&r1), KeyedCounts::census(&r2));
        for (name, joinable, matches) in CONDS {
            let (mut by_r1, mut by_r2) = (Vec::new(), Vec::new());
            for &a in &r1 {
                for &b in &r2 {
                    if matches(a, b) {
                        by_r1.push(a);
                        by_r2.push(b);
                    }
                }
            }
            for (side, got, expect) in [
                ("r1", join_census_r1(&d1, &d2, joinable), by_r1),
                ("r2", join_census_r2(&d1, &d2, joinable), by_r2),
            ] {
                let expect = KeyedCounts::census(&expect);
                assert_eq!(got.keys(), expect.keys(), "{name} by {side}, round {round}");
                assert_eq!(got.counts(), expect.counts(), "{name} by {side}");
                assert_eq!(got.total(), expect.total(), "{name} by {side}");
            }
        }
    }
}

#[test]
fn census_join_saturates_instead_of_overflowing() {
    // Two keys a side, each 2^40 strong: every product is 2^80.
    let d = KeyedCounts::from_runs(vec![1, 2], vec![1 << 40, 1 << 40]);
    assert_eq!(d.total(), 1 << 41);
    for joined in [
        join_census_r1(&d, &d, |_| (Key::MIN, Key::MAX)),
        join_census_r2(&d, &d, |_| (Key::MIN, Key::MAX)),
    ] {
        assert_eq!(joined.keys(), &[1, 2]);
        assert_eq!(joined.counts(), &[u64::MAX, u64::MAX]);
        assert_eq!(joined.total(), u64::MAX);
        assert_eq!(
            joined.range_count(2, 2),
            0,
            "a saturated prefix counts nothing more"
        );
    }
    // A zero run vanishes.
    let sparse = KeyedCounts::from_runs(vec![1, 5, 9], vec![3, 0, 2]);
    assert_eq!((sparse.keys(), sparse.counts()), (&[1, 9][..], &[3, 2][..]));
}
