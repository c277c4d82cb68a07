//! Criterion bench: the sampling substrate — the census → sweep → draw
//! pipeline of Stream-Sample and equi-depth histogram construction.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use ewh_core::Tuple;
use ewh_datagen::{gen_orders, Order, OrdersParams};
use ewh_sampling::{bernoulli_sample, stream_sample, EquiDepthHistogram, KeyedCounts};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn keys(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..n as i64 / 4)).collect()
}

fn bench_stream_sample(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_sample");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let r1 = keys(100_000, 1);
    let r2 = keys(100_000, 2);
    let jr = |k: i64| (k - 2, k + 2);
    // The three steps a scheme build pays, one bench each: the census of
    // each relation, the d2 sweep, the draw.
    group.bench_function("census_unsorted_100k", |b| {
        b.iter(|| KeyedCounts::census(&r2).num_distinct());
    });
    let mut sorted = r1.clone();
    sorted.sort_unstable();
    group.bench_function("census_sorted_100k", |b| {
        b.iter(|| KeyedCounts::census(&sorted).num_distinct());
    });
    let (d1, d2equi) = (KeyedCounts::census(&r1), KeyedCounts::census(&r2));
    group.bench_function("sweep_d2_100k", |b| {
        b.iter(|| d2equi.range_counts(d1.keys(), jr).sum::<u64>());
    });
    group.bench_function("sweep_and_draw_so2000", |b| {
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| stream_sample(&d1, &d2equi, jr, 2000, &mut rng).m);
    });
    group.finish();
}

/// The census at the two shapes `bicd_csio`'s scheme build meets, read off
/// tuples as the operator reads a relation, over its 960 000 TPC-H orders
/// at seed 236: `R1`'s sorted, all-distinct `orderkey` (run-length
/// encoded) and `R2`'s unsorted `10·custkey` over a Zipf span about `n`
/// wide (counted into dense slots).
fn bench_census_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("census_shapes");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let orders = gen_orders(&OrdersParams {
        n: 960_000,
        seed: 236,
        ..Default::default()
    });
    let relation = |key: fn(&Order) -> i64| -> Vec<Tuple> {
        orders.iter().map(|o| Tuple::new(key(o), 0)).collect()
    };
    for (name, r) in [
        ("sorted_distinct_960k", relation(|o| o.orderkey)),
        ("dense_10zipf_960k", relation(|o| 10 * o.custkey)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| KeyedCounts::census_of(r.iter().map(|t| t.key)).num_distinct());
        });
    }
    group.finish();
}

fn bench_structures(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling_structures");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let ks = keys(200_000, 5);
    group.bench_function("bernoulli_1pct", |b| {
        let mut rng = SmallRng::seed_from_u64(6);
        b.iter(|| bernoulli_sample(&ks, 0.01, &mut rng).len());
    });
    group.bench_function("equi_depth_1000_buckets", |b| {
        b.iter(|| {
            let mut sample = ks[..20_000].to_vec();
            EquiDepthHistogram::from_sample(&mut sample, 1000).num_buckets()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_stream_sample,
    bench_census_shapes,
    bench_structures
);
criterion_main!(benches);
