//! Criterion bench: the reducer's two ordering kernels.
//!
//! - `sort_by_key/n<N>_span<B>`: `ColumnBatch::sort_by_key` on batches of
//!   `N` tuples whose keys are uniform over a `B`-bit span (its two ends
//!   included, so the span is exactly `B` bits), payloads their arrival
//!   index. Every iteration sorts the same number of tuples, at least
//!   65 536 (printed per size): ns/iter divided by that count is ns per
//!   tuple.
//! - `merge_sorted_runs/...`: every `R1` fragment run of `bicd(4.0, 236)`'s
//!   32 CSIO regions at J = 32 (the benchmark's `bicd_csio`), routed in
//!   1 024-tuple morsels as a mapper does, so each run is key-sorted and
//!   the runs of a region are disjoint. `sorted_disjoint` hands each
//!   region its runs in a shuffled arrival order, as two mappers deliver
//!   them; `shuffled_within` shuffles the tuples of each run as well, so
//!   the seal has to sort. Both must seal every region to the same build.
//!
//! Inputs are cloned outside the clock (`iter_batched`).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ewh_bench::bicd;
use ewh_core::{ColumnBatch, Key, Rel, RouteBatch, RouteScatter, SchemeKind};
use ewh_exec::{build_scheme, merge_sorted_runs, OperatorConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SIZES: [usize; 8] = [65, 200, 500, 1_000, 2_047, 2_048, 4_096, 65_536];
const SPANS: [u32; 4] = [12, 20, 40, 64];
/// Tuples sorted per iteration, at least: enough batches of each size.
const TUPLES_PER_ITER: usize = 65_536;

/// Fisher–Yates, on the bench's seeded generator.
fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `count` batches of `n` tuples with keys uniform over a `bits`-bit span.
fn batches(n: usize, bits: u32, count: usize, rng: &mut SmallRng) -> Vec<ColumnBatch> {
    let mask = u64::MAX >> (64 - bits);
    let base: Key = if bits == 64 { Key::MIN } else { -(1 << 30) };
    let key = |offset: u64| base.wrapping_add(offset as Key);
    (0..count)
        .map(|_| {
            let mut keys: Vec<Key> = (0..n).map(|_| key(rng.gen::<u64>() & mask)).collect();
            keys[0] = key(0);
            keys[n / 2] = key(mask);
            shuffle(&mut keys, rng);
            ColumnBatch::from_columns(keys, (0..n as u64).collect())
        })
        .collect()
}

fn bench_sort_by_key(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(236);
    let mut group = c.benchmark_group("sort_by_key");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(600))
        .warm_up_time(Duration::from_millis(100));
    for n in SIZES {
        let count = TUPLES_PER_ITER.div_ceil(n);
        println!("sort_kernels: n{n} sorts {} tuples an iteration", n * count);
        for bits in SPANS {
            let input = batches(n, bits, count, &mut rng);
            group.bench_function(format!("n{n}_span{bits}"), |b| {
                b.iter_batched(
                    || input.clone(),
                    |mut batches| {
                        batches.iter_mut().for_each(ColumnBatch::sort_by_key);
                        batches
                    },
                    BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

/// Each region's `R1` fragment runs, routed morsel by morsel.
fn r1_runs() -> Vec<Vec<ColumnBatch>> {
    let w = bicd(4.0, 236);
    let cfg = OperatorConfig {
        j: 32,
        threads: 2,
        seed: 236,
        cost: w.cost,
        ..Default::default()
    };
    let (scheme, _) = build_scheme(SchemeKind::Csio, &w.r1, &w.r2, &w.cond, &cfg);
    let r1 = ColumnBatch::from_tuples(&w.r1);
    let mut runs: Vec<Vec<ColumnBatch>> = vec![Vec::new(); scheme.num_regions()];
    let mut scatter = RouteScatter::new(scheme.num_regions());
    let mut rng = SmallRng::seed_from_u64(236);
    for start in (0..r1.len()).step_by(cfg.morsel_tuples) {
        let end = (start + cfg.morsel_tuples).min(r1.len());
        let (keys, payloads) = (&r1.keys()[start..end], &r1.payloads()[start..end]);
        scheme
            .router
            .route_scatter(Rel::R1, keys, payloads, &mut rng, &mut scatter);
        for slot in 0..scatter.touched().len() {
            let region = scatter.touched()[slot] as usize;
            runs[region].push(scatter.take_fragment(slot));
        }
    }
    runs
}

fn seal_all(regions: Vec<Vec<ColumnBatch>>) -> Vec<ColumnBatch> {
    regions.into_iter().map(merge_sorted_runs).collect()
}

fn bench_merge_sorted_runs(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1009);
    let mut arrived = r1_runs();
    arrived.iter_mut().for_each(|runs| shuffle(runs, &mut rng));
    let mut scrambled = arrived.clone();
    for run in scrambled.iter_mut().flatten() {
        let (mut keys, mut payloads) = run.clone().into_columns();
        let mut order: Vec<usize> = (0..keys.len()).collect();
        shuffle(&mut order, &mut rng);
        (keys, payloads) = order.iter().map(|&i| (keys[i], payloads[i])).unzip();
        *run = ColumnBatch::from_columns(keys, payloads);
    }
    let (n_runs, tuples) = arrived
        .iter()
        .flatten()
        .fold((0, 0), |(r, t), run| (r + 1, t + run.len()));
    println!("sort_kernels: bicd_csio R1 is {n_runs} runs, {tuples} tuples");

    let mut group = c.benchmark_group("merge_sorted_runs_bicd_csio_r1");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let mut builds = Vec::new();
    for (name, input) in [
        ("sorted_disjoint", &arrived),
        ("shuffled_within", &scrambled),
    ] {
        builds.push(seal_all(input.clone()));
        group.bench_function(name, |b| {
            b.iter_batched(|| input.clone(), seal_all, BatchSize::LargeInput)
        });
    }
    group.finish();
    assert!(
        builds[0].iter().all(ColumnBatch::is_sorted_by_key),
        "a sealed build is out of order"
    );
    assert_eq!(
        builds[0], builds[1],
        "the two arrival shapes sealed different builds"
    );
}

criterion_group!(benches, bench_sort_by_key, bench_merge_sorted_runs);
criterion_main!(benches);
