//! HASH — hash partitioning with heavy-hitter handling, the equi-join state
//! of the art the paper defers to (§V.1: "most previous work focuses on
//! equi-joins and partitions the input through some variant of hashing...
//! one should use these techniques for joins that have only equality join
//! conditions").
//!
//! Included for two reasons:
//! * as the comparison point on pure equi-joins, with PRPD-style special
//!   handling of heavy hitters (Xu et al., SIGMOD 2008): tuples of a heavy
//!   key scatter round-robin on one side while the opposite side's joinable
//!   tuples broadcast;
//! * to make the paper's band-join argument *measurable*: hashing scatters
//!   neighboring keys, so for a band of width β each `R2` tuple must go to
//!   up to `2β + 1` machines — replication that grows linearly in β, which
//!   is exactly why the paper switches to range-based partitioning for
//!   monotonic joins.
//!
//! Unsupported conditions (inequalities: unbounded joinable ranges;
//! composites) are rejected — there is no hash function for them, which is
//! the paper's point.

use ewh_sampling::KeyedCounts;

use crate::histogram::SideStats;
use crate::{BuildInfo, JoinCondition, Key, PartitionScheme, Region, Router, SchemeKind};
use crate::{HashRouter, KeyRange};

/// Hash scheme tunables.
#[derive(Clone, Copy, Debug)]
pub struct HashParams {
    /// Keys holding more than this fraction of either relation are "heavy"
    /// and handled PRPD-style. `None` disables heavy-hitter handling
    /// (plain repartition hash join).
    pub heavy_fraction: Option<f64>,
}

impl Default for HashParams {
    fn default() -> Self {
        HashParams {
            heavy_fraction: Some(0.01),
        }
    }
}

/// Builds the hash scheme. Panics for conditions hashing cannot support.
pub fn build_hash(
    r1_keys: &[Key],
    r2_keys: &[Key],
    cond: &JoinCondition,
    j: usize,
    params: &HashParams,
) -> PartitionScheme {
    // Heavy hitters from exact aggregation (generous to the baseline; the
    // original uses samples).
    let (d1, d2) = (KeyedCounts::census(r1_keys), KeyedCounts::census(r2_keys));
    build_hash_from_stats(
        SideStats::relation(&d1),
        SideStats::relation(&d2),
        cond,
        j,
        params,
    )
}

/// [`build_hash`] from the two sides' statistics.
pub fn build_hash_from_stats(
    s1: SideStats<'_>,
    s2: SideStats<'_>,
    cond: &JoinCondition,
    j: usize,
    params: &HashParams,
) -> PartitionScheme {
    cond.validate();
    let beta = match cond {
        JoinCondition::Equi => 0,
        JoinCondition::Band { beta } => *beta,
        other => panic!(
            "hash partitioning cannot express {other:?}: joinable ranges are \
             unbounded or composite (use a range-based scheme — the paper's point)"
        ),
    };

    let mut heavy: Vec<Key> = Vec::new();
    if let Some(frac) = params.heavy_fraction {
        for (counts, other) in [(s1.census, s2.census), (s2.census, s1.census)] {
            if counts.total() == 0 || other.total() == 0 {
                continue;
            }
            let cut = (counts.total() as f64 * frac).max(1.0) as u64;
            for (&k, c) in counts.keys().iter().zip(counts.counts()) {
                if c >= cut {
                    heavy.push(k);
                }
            }
        }
        heavy.sort_unstable();
        heavy.dedup();
    }

    let (n1, n2) = (s1.tuples, s2.tuples);
    let replication = 2 * beta as u64 + 1;
    let regions = (0..j)
        .map(|_| Region {
            rows: KeyRange::full(),
            cols: KeyRange::full(),
            est_input: n1 / j as u64 + n2 * replication / j as u64,
            est_output: 0,
        })
        .collect();

    PartitionScheme {
        kind: SchemeKind::Hash,
        regions,
        router: Router::Hash(HashRouter::new(j as u32, beta, heavy)),
        build: BuildInfo {
            // One aggregation pass over both inputs for heavy detection.
            stats_scan_tuples: if params.heavy_fraction.is_some() {
                n1 + n2
            } else {
                0
            },
            ..Default::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn meet_count(s: &PartitionScheme, k1: Key, k2: Key, rng: &mut SmallRng) -> usize {
        let mut a = Vec::new();
        let mut b = Vec::new();
        s.router.route_r1(k1, rng, &mut a);
        s.router.route_r2(k2, rng, &mut b);
        a.iter().filter(|x| b.contains(x)).count()
    }

    #[test]
    fn equi_pairs_meet_exactly_once() {
        let keys: Vec<Key> = (0..500).collect();
        let s = build_hash(
            &keys,
            &keys,
            &JoinCondition::Equi,
            8,
            &HashParams::default(),
        );
        let mut rng = SmallRng::seed_from_u64(1);
        for k in 0..500 {
            assert_eq!(meet_count(&s, k, k, &mut rng), 1, "key {k}");
        }
    }

    #[test]
    fn band_pairs_meet_exactly_once_with_replication() {
        let mut rng = SmallRng::seed_from_u64(2);
        let k1: Vec<Key> = (0..400).map(|_| rng.gen_range(0..200)).collect();
        let k2: Vec<Key> = (0..400).map(|_| rng.gen_range(0..200)).collect();
        let cond = JoinCondition::Band { beta: 3 };
        let s = build_hash(
            &k1,
            &k2,
            &cond,
            6,
            &HashParams {
                heavy_fraction: None,
            },
        );
        for &a in k1.iter().take(50) {
            for &b in k2.iter().take(50) {
                let meets = meet_count(&s, a, b, &mut rng);
                if cond.matches(a, b) {
                    assert_eq!(meets, 1, "({a},{b})");
                }
            }
        }
        // Replication: an R2 tuple fans out to at most 2β+1 = 7 regions.
        let mut out = Vec::new();
        s.router.route_r2(100, &mut rng, &mut out);
        assert!(out.len() <= 7 && !out.is_empty());
    }

    #[test]
    fn heavy_keys_scatter_and_broadcast() {
        // 60% of R1 is one key: with heavy handling its R1 tuples scatter
        // across workers instead of hammering hash(k) % j.
        let mut k1 = vec![7i64; 600];
        k1.extend(0..400);
        let k2: Vec<Key> = (0..1000).collect();
        let s = build_hash(&k1, &k2, &JoinCondition::Equi, 8, &HashParams::default());
        let mut rng = SmallRng::seed_from_u64(3);
        let mut regions_seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for _ in 0..200 {
            out.clear();
            s.router.route_r1(7, &mut rng, &mut out);
            assert_eq!(out.len(), 1, "heavy R1 tuples go to one (random) region");
            regions_seen.insert(out[0]);
        }
        assert!(
            regions_seen.len() >= 6,
            "heavy key not scattered: {regions_seen:?}"
        );
        // The matching R2 key broadcasts.
        out.clear();
        s.router.route_r2(7, &mut rng, &mut out);
        assert_eq!(out.len(), 8, "R2 side of a heavy key must broadcast");
        // And heavy pairs still meet exactly once.
        for _ in 0..100 {
            assert_eq!(meet_count(&s, 7, 7, &mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "hash partitioning cannot express")]
    fn inequality_is_rejected() {
        let keys: Vec<Key> = (0..10).collect();
        build_hash(
            &keys,
            &keys,
            &JoinCondition::Inequality(crate::IneqOp::Lt),
            4,
            &HashParams::default(),
        );
    }
}
