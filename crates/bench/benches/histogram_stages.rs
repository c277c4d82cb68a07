//! Criterion bench: the three histogram stages in isolation (Theorem 3.1's
//! O(n) claim — stage times should grow ~linearly with n).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ewh_bench::{bcb, beocd, beocd_gamma, bicd};
use ewh_core::histogram::{
    build_sample_matrix, coarsen_sample_matrix, regionalize, regionalize_with_threads,
};
use ewh_core::{HistogramParams, Key};
use ewh_tiling::MonotonicBspSolver;

fn keys_of(ts: &[ewh_core::Tuple]) -> Vec<Key> {
    ts.iter().map(|t| t.key).collect()
}

fn bench_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram_stages");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for scale in [0.25f64, 0.5, 1.0] {
        let w = bcb(3, scale, 7);
        let (k1, k2) = (keys_of(&w.r1), keys_of(&w.r2));
        let n = k1.len();
        let params = HistogramParams {
            j: 16,
            threads: 2,
            ..Default::default()
        };

        group.bench_with_input(BenchmarkId::new("sampling", n), &n, |b, _| {
            b.iter(|| build_sample_matrix(&k1, &k2, &w.cond, &params).m);
        });

        let ms = build_sample_matrix(&k1, &k2, &w.cond, &params);
        group.bench_with_input(BenchmarkId::new("coarsening", n), &n, |b, _| {
            b.iter(|| coarsen_sample_matrix(&ms, &w.cond, &w.cost, 32, 4, true).n_rows());
        });

        let mc = coarsen_sample_matrix(&ms, &w.cond, &w.cost, 32, 4, true);
        group.bench_with_input(BenchmarkId::new("regionalization", n), &n, |b, _| {
            b.iter(|| regionalize(&mc, 16, false).regions.len());
        });
    }
    group.finish();
}

fn bench_monotonic_coarsening(c: &mut Criterion) {
    // MonotonicCoarsening vs the generic sweep (§III-B: "improves the
    // algorithm's running time in practice").
    let mut group = c.benchmark_group("coarsening_monotonic_vs_generic");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let w = bcb(3, 1.0, 7);
    let (k1, k2) = (keys_of(&w.r1), keys_of(&w.r2));
    let params = HistogramParams {
        j: 16,
        threads: 2,
        ..Default::default()
    };
    let ms = build_sample_matrix(&k1, &k2, &w.cond, &params);
    group.bench_function("monotonic", |b| {
        b.iter(|| coarsen_sample_matrix(&ms, &w.cond, &w.cost, 32, 4, true).n_rows());
    });
    group.bench_function("generic", |b| {
        b.iter(|| coarsen_sample_matrix(&ms, &w.cond, &w.cost, 32, 4, false).n_rows());
    });
    group.finish();
}

fn bench_bicd_coarsening(c: &mut Criterion) {
    // The coarsening input of the benchmark's `bicd_csio` (960k ORDERS, seed
    // 236, J = 32): ns 7 839 fine lines a side, so ≈ 31 k output points,
    // nc = 2J = 64, four alternations.
    let mut group = c.benchmark_group("coarsening_bicd_csio_shape");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let w = bicd(4.0, 236);
    let params = HistogramParams {
        j: 32,
        seed: 236,
        threads: 2,
        ..Default::default()
    };
    let ms = build_sample_matrix(&keys_of(&w.r1), &keys_of(&w.r2), &w.cond, &params);
    let (nc, iters) = (params.nc(), params.coarsen_iters);
    let id = format!("ns{}_so{}_nc{nc}", ms.n_rows(), ms.so);
    group.bench_function(id, |b| {
        b.iter(|| coarsen_sample_matrix(&ms, &w.cond, &w.cost, nc, iters, true).n_rows());
    });
    group.finish();
}

fn bench_beocd_regionalization(c: &mut Criterion) {
    // The regionalization input of the benchmark's `beocd_csio` (3.84M
    // ORDERS, seed 236, J = 32): the coarse grid is what it costs — 184
    // candidate cells, 16 836 MONOTONICBSP states, 685 228 splitters — on
    // the build's two threads.
    let mut group = c.benchmark_group("regionalization_beocd_csio_shape");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let w = beocd(16.0, beocd_gamma(16.0), 236);
    let params = HistogramParams {
        j: 32,
        seed: 236,
        threads: 2,
        ..Default::default()
    };
    let ms = build_sample_matrix(&keys_of(&w.r1), &keys_of(&w.r2), &w.cond, &params);
    let (nc, iters) = (params.nc(), params.coarsen_iters);
    let mc = coarsen_sample_matrix(&ms, &w.cond, &w.cost, nc, iters, true);
    let solver = MonotonicBspSolver::new(&mc.grid, params.threads);
    let id = format!(
        "ncc{}_states{}_splitters{}",
        mc.grid.candidate_cells().len(),
        solver.state_count(),
        solver.tables().3.len()
    );
    group.bench_function(id, |b| {
        b.iter(|| regionalize_with_threads(&mc, params.j, false, params.threads).delta);
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_stages,
    bench_monotonic_coarsening,
    bench_bicd_coarsening,
    bench_beocd_regionalization
);
criterion_main!(benches);
