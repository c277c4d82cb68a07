//! Property-based oracles for the cache-conscious kernels: the seal
//! (`merge_sorted_runs`) equals a std stable sort of the concatenated runs
//! whether or not they arrive sorted, the write-combining scatter router
//! builds the same fragments in the same order as a per-tuple
//! `route_r1` / `route_r2` loop filling per-region buckets, under
//! adversarial skew (all tuples into one region, empty regions, random
//! grids whose lines share regions, by-line and by-tuple paths) — over a
//! grid with blocks, the same multiset per tiling region with one sub-row
//! per block and batch — a grid's line table equals a binary search over
//! its bounds, a batch whose key bounds `routes_nowhere` has no tuple any
//! region takes, the relation sort (`sort_tuples_by_key`) is an ascending
//! permutation of its input, the same at one thread and at two, zone-fence
//! candidacy never disagrees with a real sweep, and the leapfrogging columnar sweeps equal a nested-loop
//! join for every condition on the probe-chunk shapes the engine produces
//! (a small chunk spanning a large build, gaps, exhausted sides, extreme
//! keys), in one shot and chunk by chunk.

use ewh_core::{
    sort_tuples_by_key, ColumnBatch, GridBlock, GridRouter, HashRouter, IneqOp, JoinCondition, Key,
    KeyRange, RandomRouter, Rel, RouteBatch, RouteScatter, Router, Tuple,
};
use ewh_exec::{
    merge_sorted_runs, pair_payload, pair_tag, sweep_columns, sweep_columns_each, KeyFrom,
    OutputWork,
};
use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs with duplicate-heavy keys, each either sorted (a spill sub-run, a
/// replayed fragment) or in arrival order (what `absorb` hands the seal);
/// payloads encode `(run, index)` so any reordering of equal keys — a
/// stability bug — changes the output. The long arm crosses into the radix
/// tier of `ColumnBatch::sort_by_key`, negative keys included. The third
/// arm cuts one sorted key column into consecutive runs and hands them
/// over shuffled, as two mappers deliver a key-sorted `R1`'s fragments: a
/// cut inside a stretch of equal keys makes two runs touch, which the seal
/// may not concatenate.
fn runs_strategy() -> impl Strategy<Value = Vec<ColumnBatch>> {
    let run = prop_oneof![
        prop::collection::vec(-10i64..10, 0..60),
        prop::collection::vec(-300i64..300, 0..700),
    ];
    let arrived = prop::collection::vec((run, any::<bool>()), 0..7).prop_map(|key_runs| {
        tagged(
            key_runs
                .into_iter()
                .map(|(mut keys, sorted)| {
                    if sorted {
                        keys.sort_unstable();
                    }
                    keys
                })
                .collect(),
        )
    });
    let cut_sorted = (
        prop::collection::vec(-300i64..300, 0..700),
        prop::collection::vec(any::<u64>(), 0..8),
        any::<u64>(),
    )
        .prop_map(|(mut keys, cuts, seed)| {
            keys.sort_unstable();
            let mut cuts: Vec<usize> = cuts
                .iter()
                .map(|&c| (c % (keys.len() as u64 + 1)) as usize)
                .chain([0, keys.len()])
                .collect();
            cuts.sort_unstable();
            let mut runs: Vec<Vec<Key>> =
                cuts.windows(2).map(|w| keys[w[0]..w[1]].to_vec()).collect();
            let mut rng = SmallRng::seed_from_u64(seed);
            for i in (1..runs.len()).rev() {
                runs.swap(i, rng.gen_range(0..=i));
            }
            tagged(runs)
        });
    prop_oneof![arrived, cut_sorted]
}

/// Key runs as batches whose payloads encode `(run, index)`.
fn tagged(key_runs: Vec<Vec<Key>>) -> Vec<ColumnBatch> {
    key_runs
        .iter()
        .enumerate()
        .map(|(r, keys)| {
            keys.iter()
                .enumerate()
                .map(|(i, &k)| Tuple::new(k, (r as u64) << 32 | i as u64))
                .collect()
        })
        .collect()
}

/// Key columns with adversarial shapes: uniform, all-one-key (every tuple
/// routes to a single region under content-sensitive routers), two-cluster
/// (most regions stay empty), and wide (the whole `i64` range, its ends
/// included, mixed with narrow keys).
fn keys_strategy() -> impl Strategy<Value = Vec<Key>> {
    let wide = prop_oneof![any::<i64>(), -50i64..50, Just(Key::MIN), Just(Key::MAX)];
    prop_oneof![
        prop::collection::vec(-50i64..50, 0..400),
        prop::collection::vec(wide, 0..400),
        (0..400usize, -50i64..50).prop_map(|(n, k)| vec![k; n]),
        (
            prop::collection::vec(any::<bool>(), 0..400),
            -50i64..0,
            0i64..50
        )
            .prop_map(|(picks, a, b)| picks.iter().map(|&p| if p { a } else { b }).collect()),
    ]
}

/// Interior bounds of one grid axis plus the outer `Key::MIN` / `Key::MAX`:
/// up to 69 of them (1–70 lines), drawn narrow (among the keys
/// `keys_strategy` draws), across the whole `i64` range (`Key::MIN + 1` and
/// `Key::MAX - 1` included, so the line table spans nearly `2^64` keys), or
/// clustered (a narrow clump and far outliers, so one slot of the line
/// table holds many bounds).
fn axis_bounds(rng: &mut SmallRng) -> Vec<Key> {
    let n = rng.gen_range(0..70);
    let mut inner: Vec<Key> = match rng.gen_range(0..3) {
        0 => (0..n).map(|_| rng.gen_range(-60..60)).collect(),
        1 => (0..n)
            .map(|i| match i {
                0 => Key::MIN + 1,
                1 => Key::MAX - 1,
                _ => rng.gen(),
            })
            .collect(),
        _ => (0..n)
            .map(|i| {
                if i % 8 == 0 {
                    rng.gen()
                } else {
                    rng.gen_range(-20..20)
                }
            })
            .collect(),
    };
    inner.retain(|&b| b != Key::MIN && b != Key::MAX);
    inner.sort_unstable();
    inner.dedup();
    [vec![Key::MIN], inner, vec![Key::MAX]].concat()
}

/// A grid over two `axis_bounds` axes, tiled by 1–12 rectangles drawn
/// independently: their row and column spans overlap, so lines share
/// regions, and a line no rectangle spans has none. With `blocked`, tiling
/// region `t` is an `a × b` block, `1 ≤ a, b ≤ 3`. Returns the router and
/// its region count.
fn random_grid(seed: u64, blocked: bool) -> (GridRouter, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (rows, cols) = (axis_bounds(&mut rng), axis_bounds(&mut rng));
    let span = |rng: &mut SmallRng, lines: usize| {
        let (a, b) = (rng.gen_range(0..lines), rng.gen_range(0..lines));
        (a.min(b), a.max(b))
    };
    let (mut rects, mut shapes) = (Vec::new(), Vec::new());
    for _ in 0..rng.gen_range(1..13) {
        let (r0, r1) = span(&mut rng, rows.len() - 1);
        let (c0, c1) = span(&mut rng, cols.len() - 1);
        rects.push((r0, r1, c0, c1));
        shapes.push(match blocked {
            true => (rng.gen_range(1..4), rng.gen_range(1..4)),
            false => (1, 1),
        });
    }
    let n_regions = shapes.iter().map(|&(a, b)| (a * b) as usize).sum();
    let grid = GridRouter::with_blocks(rows, cols, &rects, &shapes);
    (grid, n_regions)
}

/// The block `region` belongs to (a region of a block-free grid is a
/// `1 × 1` block of its own).
fn block_of(grid: &GridRouter, region: u32) -> GridBlock {
    let within = |b: &&GridBlock| (b.base..b.base + b.a * b.b).contains(&region);
    let plain = GridBlock {
        base: region,
        a: 1,
        b: 1,
    };
    grid.blocks().iter().find(within).copied().unwrap_or(plain)
}

/// The routing oracle: a per-tuple `route_r1` / `route_r2` loop filling
/// per-region buckets of batch indices, regions listed in first-touch
/// order.
fn per_tuple_buckets(
    router: &Router,
    rel: Rel,
    keys: &[Key],
    n_regions: usize,
    rng: &mut SmallRng,
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n_regions];
    let mut touched: Vec<u32> = Vec::new();
    let mut out = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        out.clear();
        match rel {
            Rel::R1 => router.route_r1(k, rng, &mut out),
            Rel::R2 => router.route_r2(k, rng, &mut out),
        }
        for &region in &out {
            if buckets[region as usize].is_empty() {
                touched.push(region);
            }
            buckets[region as usize].push(i as u32);
        }
    }
    (touched, buckets)
}

/// A router plus its region count. The content-insensitive matrix, the hash
/// partitioner's `R1` side and random block-free grids (see `random_grid`)
/// take the by-line scatter, the hash band fan-out of `R2` the by-tuple one.
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
        any::<u64>().prop_map(|seed| {
            let (grid, n_regions) = random_grid(seed, false);
            (Router::Grid(grid), n_regions)
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

        let mut rng = SmallRng::seed_from_u64(seed);
        let (touched, buckets) = per_tuple_buckets(&router, rel, &keys, n_regions, &mut rng);
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
    fn a_blocked_grid_keeps_each_tiling_regions_multiset_in_one_sub_row_per_batch(
        keys in keys_strategy(),
        grid_regions in any::<u64>().prop_map(|seed| random_grid(seed, true)),
        rel in prop_oneof![Just(Rel::R1), Just(Rel::R2)],
        seed in any::<u64>(),
    ) {
        // Per-tuple draws and per-batch draws pick different sub-rows, so
        // the oracle is per tiling region: the tuples the loop sends to a
        // block, each once per region of a sub-row (`R2`: sub-column).
        let (grid, n_regions) = grid_regions;
        let router = Router::Grid(grid.clone());
        let payloads: Vec<u64> = (0..keys.len() as u64).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let (touched, buckets) = per_tuple_buckets(&router, rel, &keys, n_regions, &mut rng);
        let mut scatter = RouteScatter::new(n_regions);
        router.route_scatter(rel, &keys, &payloads, &mut rng, &mut scatter);

        // Sorted payloads per tiling region (keyed by its block's first
        // region), from the loop and from the scatter.
        let mut expect = BTreeMap::<u32, Vec<u64>>::new();
        for &region in &touched {
            let tuples = buckets[region as usize].iter().map(|&i| payloads[i as usize]);
            expect.entry(block_of(&grid, region).base).or_default().extend(tuples);
        }
        let batch = ColumnBatch::from_columns(keys.clone(), payloads.clone());
        let mut got = BTreeMap::<u32, Vec<u64>>::new();
        let mut per_block = BTreeMap::<u32, Vec<(u32, ColumnBatch)>>::new();
        for (slot, &region) in scatter.touched().to_vec().iter().enumerate() {
            let fragment = scatter.take_fragment(slot);
            let block = block_of(&grid, region);
            if block.a * block.b == 1 {
                let mine = batch.gather(&buckets[region as usize]);
                prop_assert_eq!(&fragment, &mine, "plain region {} diverged", region);
            }
            got.entry(block.base).or_default().extend(fragment.payloads());
            per_block.entry(block.base).or_default().push((region, fragment));
        }
        for list in got.values_mut().chain(expect.values_mut()) {
            list.sort_unstable();
        }
        prop_assert_eq!(got, expect);
        // The batch fills one whole sub-row (sub-column) of each block it
        // reaches: every region of it, each with the same tuples.
        for (base, fragments) in per_block {
            let block = block_of(&grid, base);
            let (width, mut lanes): (u32, Vec<u32>) = match rel {
                Rel::R1 => (block.b, fragments.iter().map(|f| (f.0 - base) / block.b).collect()),
                Rel::R2 => (block.a, fragments.iter().map(|f| (f.0 - base) % block.b).collect()),
            };
            lanes.dedup();
            prop_assert_eq!(lanes.len(), 1, "block {} split a batch", base);
            prop_assert_eq!(fragments.len() as u32, width, "block {}", base);
            prop_assert!(fragments.iter().all(|f| f.1 == fragments[0].1), "block {}", base);
        }
    }

    #[test]
    fn a_batch_routed_nowhere_by_its_key_bounds_has_no_tuple_any_region_takes(
        keys in keys_strategy(),
        router_regions in router_strategy(),
        rel in prop_oneof![Just(Rel::R1), Just(Rel::R2)],
        seed in any::<u64>(),
    ) {
        let (router, n_regions) = router_regions;
        let (Some(&lo), Some(&hi)) = (keys.iter().min(), keys.iter().max()) else {
            return Ok(());
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let (touched, _) = per_tuple_buckets(&router, rel, &keys, n_regions, &mut rng);
        let nowhere = router.routes_nowhere(rel, lo, hi);
        if nowhere {
            prop_assert!(touched.is_empty(), "{:?} routed {:?}", rel, touched);
        }
        // Exact on one key: its line takes no region, or it goes somewhere.
        let (_, one) = per_tuple_buckets(&router, rel, &[lo], n_regions, &mut rng);
        let goes = one.iter().any(|bucket| !bucket.is_empty());
        prop_assert_eq!(router.routes_nowhere(rel, lo, lo), !goes);
        if !matches!(router, Router::Grid(_)) {
            prop_assert!(!nowhere, "only a grid has lines that take no region");
        }
    }

    #[test]
    fn the_relation_sort_is_an_ascending_permutation_alike_at_one_and_two_threads(
        keys in prop_oneof![
            keys_strategy(),
            prop::collection::vec(any::<i64>(), 0..5000),
            prop::collection::vec(-3000i64..3000, 0..5000),
            (0..5000usize, any::<i64>()).prop_map(|(n, k)| vec![k; n]),
        ],
    ) {
        let input: Vec<Tuple> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Tuple::new(k, i as u64))
            .collect();
        let sorted = sort_tuples_by_key(&input, 1);
        prop_assert!(sorted.windows(2).all(|w| w[0].key <= w[1].key));
        prop_assert_eq!(&sort_tuples_by_key(&input, 2), &sorted);
        let by_both = |mut t: Vec<Tuple>| {
            t.sort_unstable_by_key(|t| (t.key, t.payload));
            t
        };
        prop_assert_eq!(by_both(sorted), by_both(input));
    }

    #[test]
    fn the_line_table_equals_a_binary_search_over_the_bounds(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (rows, cols) = (axis_bounds(&mut rng), axis_bounds(&mut rng));
        let whole = [(0, rows.len() - 2, 0, cols.len() - 2)];
        let grid = GridRouter::new(rows.clone(), cols.clone(), &whole);
        for (bounds, rel) in [(&rows, Rel::R1), (&cols, Rel::R2)] {
            let near = bounds.iter().flat_map(|&b| [b.saturating_sub(1), b, b.saturating_add(1)]);
            let random: Vec<Key> = (0..100).flat_map(|_| [rng.gen(), rng.gen_range(-70..70)]).collect();
            for k in near.chain([Key::MIN, Key::MAX]).chain(random) {
                let line = match rel {
                    Rel::R1 => grid.row_of(k),
                    Rel::R2 => grid.col_of(k),
                };
                let oracle = (bounds.partition_point(|&b| b <= k) - 1).min(bounds.len() - 2);
                prop_assert_eq!(line, oracle, "key {} over {:?}", k, bounds);
            }
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
