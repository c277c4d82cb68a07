//! Edge-case and degenerate-input tests for the tiling substrate.

use ewh_tiling::{
    bsp, coarsen, grid_max_cell_weight, monotonic_bsp, partition_max_weight, validate_partition,
    CoarsenConfig, Grid, Rect, SparseGrid, SparsePoint, TilingAlgo,
};

/// The least heaviest slab of `w` cut into at most `k` contiguous slabs, by
/// trying every set of cuts.
fn min_max_slab(w: &[u64], k: usize) -> u64 {
    let n = w.len();
    (0u32..1 << (n - 1))
        .filter(|mask| (mask.count_ones() as usize) < k)
        .map(|mask| {
            let (mut max, mut acc) = (0u64, 0u64);
            for (i, &x) in w.iter().enumerate() {
                if i > 0 && mask & (1 << (i - 1)) != 0 {
                    (max, acc) = (max.max(acc), 0);
                }
                acc += x;
            }
            max.max(acc)
        })
        .min()
        .unwrap()
}

#[test]
fn one_by_one_grid() {
    let g = Grid::new(&[3], &[4], &[5], &[true]);
    assert_eq!(g.weight(g.full()), 12);
    // One region at any delta: charged one at its weight, ⌈12/δ⌉ below.
    let cell = vec![Rect::new(0, 0, 0, 0)];
    for (delta, shares) in [(12u64, 1u32), (11, 2), (6, 2), (5, 3), (1, 12)] {
        assert_eq!(monotonic_bsp(&g, delta).unwrap(), cell);
        assert_eq!(bsp(&g, delta).unwrap(), cell);
        assert_eq!(validate_partition(&g, &cell, delta), Ok(shares));
    }
    // With j machines the cell gets all of them.
    let p = partition_max_weight(&g, 4, TilingAlgo::MonotonicBsp, 1);
    assert_eq!(
        (p.regions, p.shares, p.delta, p.max_weight),
        (cell, vec![4], 3, 3)
    );
}

#[test]
fn single_row_grid_behaves_like_1d_partition() {
    let n = 12;
    let out: Vec<u64> = (1..=n as u64).collect();
    let cand = vec![true; n];
    let g = Grid::new(&[0], &vec![0u64; n], &out, &cand);
    for j in [1usize, 2, 3, 6] {
        let p = partition_max_weight(&g, j, TilingAlgo::MonotonicBsp, 1);
        validate_partition(&g, &p.regions, p.delta).unwrap();
        assert!(p.regions.len() <= j);
        // Compare against the exact 1-D min-max partition.
        assert_eq!(p.max_weight, min_max_slab(&out, j), "j={j}");
    }
}

#[test]
fn single_column_grid() {
    let n = 8;
    let out: Vec<u64> = vec![2; n];
    let g = Grid::new(&vec![1u64; n], &[0], &out, &vec![true; n]);
    let p = partition_max_weight(&g, 4, TilingAlgo::MonotonicBsp, 1);
    validate_partition(&g, &p.regions, p.delta).unwrap();
    assert!(p.regions.len() <= 4 && p.regions.len() >= 2);
}

#[test]
fn fully_candidate_grid_covers_everything() {
    let n = 6;
    let out = vec![1u64; n * n];
    let g = Grid::new(&vec![1u64; n], &vec![1u64; n], &out, &vec![true; n * n]);
    let p = partition_max_weight(&g, 5, TilingAlgo::MonotonicBsp, 1);
    validate_partition(&g, &p.regions, p.delta).unwrap();
    let covered: u64 = p.regions.iter().map(|r| r.area()).sum();
    assert_eq!(covered, (n * n) as u64, "full grid must be fully covered");
}

#[test]
fn zero_weight_grid_is_trivial() {
    let n = 4;
    let g = Grid::new(
        &vec![0u64; n],
        &vec![0u64; n],
        &vec![0u64; n * n],
        &vec![true; n * n],
    );
    let p = partition_max_weight(&g, 3, TilingAlgo::MonotonicBsp, 1);
    assert_eq!(p.max_weight, 0);
    validate_partition(&g, &p.regions, 0).unwrap();
}

#[test]
fn anti_staircase_still_partitions_correctly() {
    // Candidates along the anti-diagonal: monotone in the *other*
    // orientation. The closure in MONOTONICBSP must keep it correct.
    let n = 7;
    let mut out = vec![0u64; n * n];
    let mut cand = vec![false; n * n];
    for i in 0..n {
        let j = n - 1 - i;
        out[i * n + j] = 3;
        cand[i * n + j] = true;
    }
    let g = Grid::new(&vec![1u64; n], &vec![1u64; n], &out, &cand);
    for delta in [5u64, 10, 35] {
        let (a, b) = (bsp(&g, delta), monotonic_bsp(&g, delta));
        match (a, b) {
            (Some(x), Some(y)) => {
                assert_eq!(x.len(), y.len(), "delta={delta}");
                validate_partition(&g, &y, delta).unwrap();
            }
            (None, None) => {}
            (x, y) => panic!("feasibility disagrees at delta={delta}: {x:?} vs {y:?}"),
        }
    }
}

#[test]
fn extreme_weights_do_not_overflow() {
    let big = u64::MAX / 16;
    let g = Grid::new(
        &[big, 1],
        &[big, 1],
        &[big, 0, 0, 1],
        &[true, false, false, true],
    );
    // Total weight computation must saturate/behave, and the partition at
    // huge delta must succeed.
    let p = partition_max_weight(&g, 2, TilingAlgo::MonotonicBsp, 1);
    validate_partition(&g, &p.regions, p.delta).unwrap();
}

#[test]
fn coarsen_handles_empty_point_set() {
    let n = 20u32;
    let sg = SparseGrid::new(
        n,
        n,
        vec![5; n as usize],
        vec![5; n as usize],
        Vec::new(),
        (0..n).map(|i| (i, (i + 2).min(n - 1))).collect(),
    );
    let (rc, cc) = coarsen(
        &sg,
        &CoarsenConfig {
            nc: 4,
            iters: 3,
            monotonic: true,
        },
    );
    assert_eq!(rc[0], 0);
    assert_eq!(*rc.last().unwrap(), n);
    assert!(rc.len() - 1 <= 4 && cc.len() - 1 <= 4);
    // With uniform inputs the cuts should be near-uniform.
    let w = grid_max_cell_weight(&sg, &rc, &cc);
    assert!(w <= 2 * (n as u64 / 4 + 1) * 5 * 2, "unbalanced cuts: {w}");
}

#[test]
fn coarsen_with_all_rows_empty_candidates() {
    // No candidate cells at all: weight 0 everywhere, any cuts valid.
    let n = 10u32;
    let sg = SparseGrid::new(
        n,
        n,
        vec![1; n as usize],
        vec![1; n as usize],
        Vec::new(),
        vec![(1, 0); n as usize], // all empty
    );
    let (rc, cc) = coarsen(
        &sg,
        &CoarsenConfig {
            nc: 3,
            iters: 2,
            monotonic: true,
        },
    );
    assert_eq!(grid_max_cell_weight(&sg, &rc, &cc), 0);
}

#[test]
fn coarsen_single_hot_point() {
    // One massive point: its cell is irreducible; the optimizer must not
    // merge extra weight into that cell.
    let n = 16u32;
    let points = vec![
        SparsePoint {
            row: 8,
            col: 8,
            w: 1000,
        },
        SparsePoint {
            row: 2,
            col: 2,
            w: 10,
        },
        SparsePoint {
            row: 13,
            col: 14,
            w: 10,
        },
    ];
    let sg = SparseGrid::new(
        n,
        n,
        vec![1; n as usize],
        vec![1; n as usize],
        points,
        (0..n)
            .map(|i| (i.saturating_sub(1), (i + 1).min(n - 1)))
            .collect(),
    );
    let (rc, cc) = coarsen(
        &sg,
        &CoarsenConfig {
            nc: 8,
            iters: 4,
            monotonic: true,
        },
    );
    let w = grid_max_cell_weight(&sg, &rc, &cc);
    // The hot point alone weighs 1000 + inputs; allow its own cell plus a
    // couple of neighbors, but not a merge with another hot point.
    assert!(w < 1030, "hot point cell inflated: {w}");
}

#[test]
fn single_column_coarsening_single_slab_and_degenerate() {
    let row_cuts = |w: &[u64], nc| {
        let n = w.len() as u32;
        let cand = vec![(0, 0); n as usize];
        let sg = SparseGrid::new(n, 1, w.to_vec(), vec![0], Vec::new(), cand);
        let cfg = CoarsenConfig {
            nc,
            iters: 2,
            monotonic: true,
        };
        coarsen(&sg, &cfg).0
    };
    assert_eq!(row_cuts(&[7, 7, 7], 1), vec![0, 3]);
    assert_eq!(row_cuts(&[0, 0, 0, 0], 2), vec![0, 4]);
    assert_eq!(row_cuts(&[u64::MAX / 4, u64::MAX / 4], 2), vec![0, 1, 2]);
    // φ = 2·(u64::MAX/4): the sweep packs the first two lines.
    assert_eq!(row_cuts(&[u64::MAX / 4; 3], 2), vec![0, 2, 3]);
}

#[test]
fn partition_splits_while_it_reduces_max_weight() {
    // The objective is min-max weight, not min regions: with j = 4 machines
    // available the 2×2 grid splits into four cell regions of weight 3
    // instead of one region of weight 8 — and with j = 8 each cell is charged
    // two of them, for a weight of ⌈3/2⌉ a share.
    let g = Grid::new(&[1, 1], &[1, 1], &[1, 1, 1, 1], &[true; 4]);
    let p = partition_max_weight(&g, 4, TilingAlgo::MonotonicBsp, 1);
    assert_eq!((p.max_weight, p.regions.len()), (3, 4));
    assert_eq!(p.shares, vec![1; 4]);
    let p = partition_max_weight(&g, 8, TilingAlgo::MonotonicBsp, 1);
    assert_eq!((p.max_weight, p.regions.len()), (2, 4));
    assert_eq!(p.shares, vec![2; 4]);
    // With a single machine it must of course be one region.
    let p1 = partition_max_weight(&g, 1, TilingAlgo::MonotonicBsp, 1);
    assert_eq!(p1.regions.len(), 1);
    assert_eq!(p1.max_weight, 8);
}

#[test]
fn shrink_of_disjoint_candidate_clusters() {
    // Two clusters far apart: shrinking the full grid must span both, while
    // shrinking each half isolates one.
    let n = 10;
    let mut cand = vec![false; n * n];
    let mut out = vec![0u64; n * n];
    for (i, j) in [(1usize, 1usize), (8, 8)] {
        cand[i * n + j] = true;
        out[i * n + j] = 1;
    }
    let g = Grid::new(&vec![1u64; n], &vec![1u64; n], &out, &cand);
    assert_eq!(g.shrink(g.full()), Some(Rect::new(1, 1, 8, 8)));
    assert_eq!(g.shrink(Rect::new(0, 0, 4, 9)), Some(Rect::new(1, 1, 1, 1)));
    assert_eq!(g.shrink(Rect::new(5, 0, 9, 9)), Some(Rect::new(8, 8, 8, 8)));
    // And the partition splits the two clusters into separate regions when
    // delta forces it.
    let regions = monotonic_bsp(&g, 5).unwrap();
    validate_partition(&g, &regions, 5).unwrap();
    assert_eq!(regions.len(), 2);
}
