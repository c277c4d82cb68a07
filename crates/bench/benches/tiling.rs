//! Criterion bench: BSP vs MONOTONICBSP (Table III's time story, Lemma 3.5).
//!
//! The dense baseline enumerates O(nc⁴) rectangles with O(nc) splitters each;
//! MONOTONICBSP only the O(ncc²) minimal candidate rectangles. On band-join
//! grids (ncc = Θ(nc)) the gap grows roughly like nc².

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ewh_tiling::{partition_max_weight, BspSolver, Grid, MonotonicBspSolver, TilingAlgo};

fn band_grid(n: usize, half_width: i64) -> Grid {
    let mut out = vec![0u64; n * n];
    let mut cand = vec![false; n * n];
    for i in 0..n {
        for j in 0..n {
            if (i as i64 - j as i64).abs() <= half_width {
                out[i * n + j] = 1 + ((i * 7 + j) % 5) as u64;
                cand[i * n + j] = true;
            }
        }
    }
    Grid::new(&vec![8u64; n], &vec![8u64; n], &out, &cand)
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("tiling_solve");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for nc in [12usize, 16, 24] {
        let grid = band_grid(nc, 1);
        let delta = grid.weight(grid.full()) / 6;
        group.bench_with_input(BenchmarkId::new("bsp_dense", nc), &nc, |b, _| {
            let solver = BspSolver::new(&grid);
            b.iter(|| solver.solve(delta).map(|r| r.len()));
        });
        group.bench_with_input(BenchmarkId::new("monotonic_bsp", nc), &nc, |b, _| {
            let solver = MonotonicBspSolver::new(&grid, 2);
            b.iter(|| solver.solve(delta).map(|r| r.len()));
        });
    }
    group.finish();
}

fn bench_regionalization(c: &mut Criterion) {
    let mut group = c.benchmark_group("tiling_binary_search");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    // The full regionalization (binary search over delta) at a realistic
    // coarse size (nc = 2J = 64) — MONOTONICBSP only; the dense baseline is
    // intractable here, which is the paper's point.
    let grid = band_grid(64, 2);
    group.bench_function("monotonic_tables_nc64", |b| {
        b.iter(|| MonotonicBspSolver::new(&grid, 2).state_count());
    });
    group.bench_function("monotonic_j32_nc64", |b| {
        b.iter(|| partition_max_weight(&grid, 32, TilingAlgo::MonotonicBsp, 2).max_weight);
    });
    let small = band_grid(16, 1);
    group.bench_function("dense_j8_nc16", |b| {
        b.iter(|| partition_max_weight(&small, 8, TilingAlgo::Bsp, 1).max_weight);
    });
    group.bench_function("monotonic_j8_nc16", |b| {
        b.iter(|| partition_max_weight(&small, 8, TilingAlgo::MonotonicBsp, 2).max_weight);
    });
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_regionalization);
criterion_main!(benches);
