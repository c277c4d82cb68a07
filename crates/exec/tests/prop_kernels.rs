//! Property-based oracles for the cache-conscious kernels: the seal
//! (`merge_sorted_runs`) equals a std stable sort of the concatenated runs
//! whether or not they arrive sorted, the write-combining scatter router
//! builds the same fragments in the same order as a per-tuple
//! `route_r1` / `route_r2` loop filling per-region buckets, under
//! adversarial skew (all tuples into one region, empty regions, grouped
//! and generic paths), zone-fence candidacy never disagrees with a
//! real sweep, and the leapfrogging columnar sweeps equal a nested-loop
//! join for every condition on the probe-chunk shapes the engine produces
//! (a small chunk spanning a large build, gaps, exhausted sides, extreme
//! keys), in one shot and chunk by chunk.

use ewh_core::{
    ColumnBatch, GridRouter, HashRouter, IneqOp, JoinCondition, Key, KeyRange, RandomRouter, Rel,
    RouteBatch, RouteScatter, Router, Tuple,
};
use ewh_exec::{
    merge_sorted_runs, pair_payload, pair_tag, sweep_columns, sweep_columns_each, KeyFrom,
    OutputWork,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs with duplicate-heavy keys, each either sorted (a spill sub-run, a
/// replayed fragment) or in arrival order (what `absorb` hands the seal);
/// payloads encode `(run, index)` so any reordering of equal keys — a
/// stability bug — changes the output. The long arm crosses into the radix
/// tier of `ColumnBatch::sort_by_key`, negative keys included.
fn runs_strategy() -> impl Strategy<Value = Vec<ColumnBatch>> {
    let run = prop_oneof![
        prop::collection::vec(-10i64..10, 0..60),
        prop::collection::vec(-300i64..300, 0..700),
    ];
    prop::collection::vec((run, any::<bool>()), 0..7).prop_map(|key_runs| {
        key_runs
            .into_iter()
            .enumerate()
            .map(|(r, (mut keys, sorted))| {
                if sorted {
                    keys.sort_unstable();
                }
                keys.iter()
                    .enumerate()
                    .map(|(i, &k)| Tuple::new(k, (r as u64) << 32 | i as u64))
                    .collect()
            })
            .collect()
    })
}

/// Key columns with adversarial shapes: uniform, all-one-key (every tuple
/// routes to a single region under content-sensitive routers), and
/// two-cluster (most regions stay empty).
fn keys_strategy() -> impl Strategy<Value = Vec<Key>> {
    prop_oneof![
        prop::collection::vec(-50i64..50, 0..400),
        (0..400usize, -50i64..50).prop_map(|(n, k)| vec![k; n]),
        (
            prop::collection::vec(any::<bool>(), 0..400),
            -50i64..0,
            0i64..50
        )
            .prop_map(|(picks, a, b)| picks.iter().map(|&p| if p { a } else { b }).collect()),
    ]
}

/// A router plus its region count: the content-insensitive matrix and the
/// hash partitioner take the grouped scatter fast path, the grid router the
/// generic per-destination path.
fn router_strategy() -> impl Strategy<Value = (Router, usize)> {
    prop_oneof![
        (1u32..4, 1u32..4).prop_map(|(rows, cols)| {
            let n = (rows * cols) as usize;
            (Router::Random(RandomRouter { rows, cols }), n)
        }),
        (1u32..6, 0i64..3, prop::collection::vec(-50i64..50, 0..3)).prop_map(
            |(j, beta, mut heavy)| {
                heavy.sort_unstable();
                heavy.dedup();
                (Router::Hash(HashRouter::new(j, beta, heavy)), j as usize)
            }
        ),
        Just({
            // A 2×2 key grid whose four regions each cover one cell.
            let bounds = vec![Key::MIN, 0, Key::MAX];
            let rects = [(0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)];
            let g = GridRouter::new(bounds.clone(), bounds, &rects);
            (Router::Grid(g), 4)
        }),
    ]
}

/// Sorted key-sorted batch for the sweep fence oracle.
fn sorted_batch_strategy(max_len: usize) -> impl Strategy<Value = ColumnBatch> {
    prop::collection::vec(-40i64..40, 0..max_len).prop_map(|mut keys| {
        keys.sort_unstable();
        keys.iter()
            .enumerate()
            .map(|(i, &k)| Tuple::new(k, i as u64))
            .collect()
    })
}

fn cond_strategy() -> impl Strategy<Value = JoinCondition> {
    prop_oneof![
        Just(JoinCondition::Equi),
        (0i64..4).prop_map(|beta| JoinCondition::Band { beta }),
        Just(JoinCondition::Inequality(IneqOp::Lt)),
        Just(JoinCondition::Inequality(IneqOp::Ge)),
    ]
}

/// The inclusive key coverage of a sorted batch (what the reducer fences
/// build state and probe chunks with).
fn zone_of(batch: &ColumnBatch) -> KeyRange {
    if batch.is_empty() {
        KeyRange::empty()
    } else {
        KeyRange::new(batch.keys()[0], batch.keys()[batch.len() - 1])
    }
}

proptest! {
    #[test]
    fn merge_matches_a_stable_sort_of_the_concatenation(runs in runs_strategy()) {
        // The simplest correct merge: concatenate, std stable sort. Exact
        // equality — payload order included — is the stable k-way merge's
        // contract (ties toward the lower run, then the lower position).
        let mut oracle: Vec<Tuple> = runs.iter().flat_map(ColumnBatch::iter_tuples).collect();
        oracle.sort_by_key(|t| t.key);
        prop_assert_eq!(merge_sorted_runs(runs).to_tuples(), oracle);
    }

    #[test]
    fn scatter_routing_matches_bucket_gather_under_skew(
        keys in keys_strategy(),
        router_regions in router_strategy(),
        rel in prop_oneof![Just(Rel::R1), Just(Rel::R2)],
        seed in any::<u64>(),
    ) {
        let (router, n_regions) = router_regions;
        let payloads: Vec<u64> = (0..keys.len() as u64).map(|i| i << 8 | 0xE1).collect();

        // The oracle: route tuple by tuple, bucket the batch indices per
        // region, list regions in first-touch order.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n_regions];
        let mut touched: Vec<u32> = Vec::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            out.clear();
            match rel {
                Rel::R1 => router.route_r1(k, &mut rng, &mut out),
                Rel::R2 => router.route_r2(k, &mut rng, &mut out),
            }
            for &region in &out {
                if buckets[region as usize].is_empty() {
                    touched.push(region);
                }
                buckets[region as usize].push(i as u32);
            }
        }
        let oracle_after: u64 = rng.gen();

        let mut scatter = RouteScatter::new(n_regions);
        let mut rng = SmallRng::seed_from_u64(seed);
        router.route_scatter(rel, &keys, &payloads, &mut rng, &mut scatter);
        let scatter_after: u64 = rng.gen();

        // Same RNG consumption, same first-touch region order, and every
        // fragment bit-identical to the gather of the oracle's bucket.
        prop_assert_eq!(scatter_after, oracle_after);
        prop_assert_eq!(scatter.touched(), &touched[..]);
        let batch = ColumnBatch::from_columns(keys.clone(), payloads.clone());
        for (slot, &region) in touched.iter().enumerate() {
            let expect = batch.gather(&buckets[region as usize]);
            let got = scatter.take_fragment(slot);
            prop_assert_eq!(got, expect, "region {} fragment diverged", region);
        }
    }

    #[test]
    fn zone_fences_never_disagree_with_a_real_sweep(
        build in sorted_batch_strategy(150),
        probe in sorted_batch_strategy(150),
        cond in cond_strategy(),
    ) {
        let (count, checksum) = sweep_columns(&build, &probe, &cond, OutputWork::Touch);
        // The fenced path skips the sweep when candidacy fails; that skip
        // must be provably lossless.
        if !cond.candidate(&zone_of(&build), &zone_of(&probe)) {
            prop_assert_eq!((count, checksum), (0, 0), "fence would drop output");
        }
        // And a produced pair implies candidacy (the contrapositive, so
        // both directions of the fence contract are pinned).
        if count > 0 {
            prop_assert!(cond.candidate(&zone_of(&build), &zone_of(&probe)));
        }
    }
}

const CONDS: [JoinCondition; 8] = [
    JoinCondition::Equi,
    JoinCondition::Band { beta: 0 },
    JoinCondition::Band { beta: 4 },
    JoinCondition::Inequality(IneqOp::Lt),
    JoinCondition::Inequality(IneqOp::Le),
    JoinCondition::Inequality(IneqOp::Gt),
    JoinCondition::Inequality(IneqOp::Ge),
    JoinCondition::EquiBand { shift: 8, beta: 2 },
];

/// A key-sorted batch over `keys`, payloads distinct per position.
fn sorted_batch(mut keys: Vec<Key>, tag: u64) -> ColumnBatch {
    keys.sort_unstable();
    keys.iter()
        .enumerate()
        .map(|(i, &k)| Tuple::new(k, tag << 40 | i as u64))
        .collect()
}

fn random_keys(n: usize, domain: std::ops::Range<Key>, seed: u64) -> Vec<Key> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(domain.clone())).collect()
}

/// Does build key `a` join probe key `b`? `matches` is the definition, but
/// its band arithmetic overflows at the ends of the key space; there the
/// joinable range (saturating, and pinned equal to `matches` by
/// `ewh_core`'s own tests) stands in.
type Joins = fn(&JoinCondition, Key, Key) -> bool;
const BY_MATCHES: Joins = |cond, a, b| cond.matches(a, b);
const BY_RANGE: Joins = |cond, a, b| cond.joinable_range(a).contains(b);

/// The build/probe shapes a probe-chunk sweep meets and the dense one-shot
/// kernel never told apart.
fn sweep_shapes() -> Vec<(&'static str, ColumnBatch, ColumnBatch, Joins)> {
    let shape = |name, build: Vec<Key>, probe: Vec<Key>, joins| {
        (name, sorted_batch(build, 1), sorted_batch(probe, 2), joins)
    };
    let far = 1 << 40;
    vec![
        // What the engine sweeps: one chunk whose keys span the region.
        shape(
            "256-key probe inside a 64k-key build",
            (0..65_536).collect(),
            random_keys(256, 0..65_536, 41),
            BY_MATCHES,
        ),
        shape(
            "dense probe against a sparse build",
            (0..64).map(|i| i * 1000 + 500).collect(),
            (0..20_000).map(|i| i * 3).collect(),
            BY_MATCHES,
        ),
        shape(
            "one hot key on both sides",
            [vec![7; 300], random_keys(40, 0..64, 43)].concat(),
            [vec![7; 300], random_keys(40, 0..64, 47)].concat(),
            BY_MATCHES,
        ),
        shape(
            "disjoint key ranges, interleaved",
            [(0..100).collect::<Vec<Key>>(), (1000..1100).collect()].concat(),
            [(500..600).collect::<Vec<Key>>(), (2000..2100).collect()].concat(),
            BY_MATCHES,
        ),
        shape(
            "probe entirely past the last build key",
            random_keys(500, 0..400, 53),
            random_keys(500, far..far + 400, 59),
            BY_MATCHES,
        ),
        shape(
            "probe entirely before the first build key",
            random_keys(500, far..far + 400, 61),
            random_keys(500, 0..400, 67),
            BY_MATCHES,
        ),
        shape(
            "keys at Key::MIN and Key::MAX",
            vec![
                Key::MIN,
                Key::MIN,
                Key::MIN + 1,
                -9,
                0,
                0,
                9,
                Key::MAX - 1,
                Key::MAX,
                Key::MAX,
            ],
            vec![
                Key::MIN,
                Key::MIN + 3,
                -1,
                0,
                1,
                Key::MAX - 3,
                Key::MAX,
                Key::MAX,
            ],
            BY_RANGE,
        ),
    ]
}

#[test]
fn leapfrog_sweeps_equal_a_nested_loop_join_on_every_chunk_shape() {
    for (name, build, probe, joins) in sweep_shapes() {
        for cond in CONDS {
            let ctx = format!("{name}, {cond:?}");
            // The nested loop, lazily and build-major — the order the
            // kernel emits in — so that even the 64k-key shape's millions
            // of inequality pairs are compared one by one without being
            // held: equal sequences are equal multisets.
            let mut expect = build.iter_tuples().flat_map(|b| {
                probe
                    .iter_tuples()
                    .filter(move |p| joins(&cond, b.key, p.key))
                    .map(move |p| (p.key, b.payload, p.payload))
            });
            // Folded over the oracle's pairs as they are matched off; the
            // exhaustion check below makes it the whole join's fold.
            let (mut count, mut checksum, mut tags) = (0u64, 0u64, 0u64);
            let each = sweep_columns_each(&build, &probe, &cond, KeyFrom::Probe, |k, p| {
                let (key, b, pp) = expect.next().unwrap_or_else(|| panic!("{ctx}: extra pair"));
                assert_eq!((k, p), (key, pair_payload(b, pp)), "{ctx}");
                count += 1;
                checksum ^= p;
                tags ^= pair_tag(b, pp);
            });
            assert_eq!(expect.next(), None, "{ctx}: pairs missing");
            assert_eq!(each, (count, checksum), "{ctx}");
            let touch = sweep_columns(&build, &probe, &cond, OutputWork::Touch);
            assert_eq!(touch, (count, checksum), "{ctx}");
            let counted = sweep_columns(&build, &probe, &cond, OutputWork::Count);
            assert_eq!(counted, (count, tags), "{ctx}");
        }
    }
}

#[test]
fn chunked_sweeps_equal_the_one_shot_sweep() {
    // The engine joins a region's build against the probe side one chunk
    // at a time, each chunk sorted on its own: the pair set partitions
    // across chunks, so counts add, checksums XOR and the emitted pairs
    // union to the one-shot result — at every chunk size, down to the
    // single-tuple chunk where every sweep is one leap.
    let build = sorted_batch(random_keys(600, 0..400, 71), 1);
    let arrival = random_keys(600, 0..400, 73);
    let probe_tuples: Vec<Tuple> = arrival
        .iter()
        .enumerate()
        .map(|(i, &k)| Tuple::new(k, 2 << 40 | i as u64))
        .collect();
    let sweep = |probe: &ColumnBatch, cond: &JoinCondition, out: &mut Vec<(Key, u64)>| {
        let each = sweep_columns_each(&build, probe, cond, KeyFrom::Build, |k, p| out.push((k, p)));
        assert_eq!(each, sweep_columns(&build, probe, cond, OutputWork::Touch));
        each
    };
    for cond in CONDS {
        let mut whole: ColumnBatch = probe_tuples.iter().copied().collect();
        whole.sort_by_key();
        let mut expect_pairs = Vec::new();
        let expect = sweep(&whole, &cond, &mut expect_pairs);
        expect_pairs.sort_unstable();
        for chunk_size in [1usize, 7, 64, 256] {
            let (mut count, mut checksum, mut pairs) = (0u64, 0u64, Vec::new());
            for chunk in probe_tuples.chunks(chunk_size) {
                let mut chunk: ColumnBatch = chunk.iter().copied().collect();
                chunk.sort_by_key();
                let (c, x) = sweep(&chunk, &cond, &mut pairs);
                count += c;
                checksum ^= x;
            }
            pairs.sort_unstable();
            assert_eq!((count, checksum), expect, "{cond:?} chunk {chunk_size}");
            assert!(
                pairs == expect_pairs,
                "{cond:?} chunk {chunk_size}: pairs differ"
            );
        }
    }
}
