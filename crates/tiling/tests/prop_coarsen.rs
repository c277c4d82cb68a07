//! Property-based tests of the coarsening stage: cut validity, objective
//! bounds, and the monotonic shortcut's agreement with the generic sweep.

use ewh_tiling::{coarsen, grid_max_cell_weight, CoarsenConfig, SparseGrid, SparsePoint};
use proptest::prelude::*;

/// Random sparse grid with a staircase candidate structure.
fn sparse_grid() -> impl Strategy<Value = SparseGrid> {
    (4u32..40).prop_flat_map(|n| {
        let row_w = prop::collection::vec(0u64..30, n as usize);
        let col_w = prop::collection::vec(0u64..30, n as usize);
        let points = prop::collection::vec((0..n, 0u32..3, 1u64..50), 0..60);
        (row_w, col_w, points).prop_map(move |(row_w, col_w, raw)| {
            // Staircase intervals around the diagonal, width 2.
            let cand: Vec<(u32, u32)> = (0..n)
                .map(|i| (i.saturating_sub(1), (i + 1).min(n - 1)))
                .collect();
            // Clamp points into their row's candidate interval so the grid is
            // consistent (real output samples always land in candidates).
            let points: Vec<SparsePoint> = raw
                .into_iter()
                .map(|(row, dc, w)| {
                    let (lo, hi) = cand[row as usize];
                    SparsePoint {
                        row,
                        col: (lo + dc).min(hi),
                        w,
                    }
                })
                .collect();
            SparseGrid::new(n, n, row_w, col_w, points, cand)
        })
    })
}

fn check_cuts(cuts: &[u32], n: u32, nc: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(cuts[0], 0);
    prop_assert_eq!(*cuts.last().unwrap(), n);
    prop_assert!(
        cuts.windows(2).all(|w| w[0] < w[1]),
        "not increasing: {:?}",
        cuts
    );
    prop_assert!(cuts.len() - 1 <= nc);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn cuts_are_always_valid(sg in sparse_grid(), nc in 1usize..10, iters in 0usize..5) {
        let cfg = CoarsenConfig { nc, iters, monotonic: true };
        let (rc, cc) = coarsen(&sg, &cfg);
        check_cuts(&rc, sg.n_rows, nc.max(1))?;
        check_cuts(&cc, sg.n_cols, nc.max(1))?;
    }

    #[test]
    fn optimized_cuts_beat_uniform_cuts(sg in sparse_grid(), nc in 2usize..8) {
        let cfg = CoarsenConfig { nc, iters: 4, monotonic: true };
        let (rc, cc) = coarsen(&sg, &cfg);
        let got = grid_max_cell_weight(&sg, &rc, &cc);
        // Uniform slabs of equal fine-row count.
        let uniform = |n: u32| -> Vec<u32> {
            let per = n.div_ceil(nc as u32).max(1);
            let mut cuts: Vec<u32> = (0..=n).step_by(per as usize).collect();
            if *cuts.last().unwrap() != n {
                cuts.push(n);
            }
            cuts
        };
        let base = grid_max_cell_weight(&sg, &uniform(sg.n_rows), &uniform(sg.n_cols));
        // The optimizer explores uniform-like configurations too, so it can
        // be at most marginally worse (alternating optimization is not
        // jointly optimal; allow 30% slack).
        prop_assert!(
            got as f64 <= 1.3 * base as f64 + 1.0,
            "optimized {} vs uniform {}", got, base
        );
    }

    #[test]
    fn monotonic_flag_only_matters_on_a_sparse_staircase(
        sg in sparse_grid(),
        nc in 2usize..6,
    ) {
        // Where every cell is a candidate, the candidate-aware sweep has
        // nothing to skip; off a staircase, coarsening cannot track
        // candidates and treats every cell as one. Either way the flag must
        // not move a cut.
        let both = |sg: &SparseGrid| {
            let cfg = |monotonic| CoarsenConfig { nc, iters: 3, monotonic };
            (coarsen(sg, &cfg(true)), coarsen(sg, &cfg(false)))
        };
        let n = sg.n_rows;
        let full = SparseGrid { cand: vec![(0, n - 1); n as usize], ..sg.clone() };
        let (m, g) = both(&full);
        prop_assert_eq!(m, g);
        // The diagonal band upside down: endpoints fall, no staircase.
        let flipped: Vec<(u32, u32)> = sg.cand.iter().rev().copied().collect();
        let anti = SparseGrid { cand: flipped, ..sg };
        prop_assert!(!anti.is_staircase());
        let (m, g) = both(&anti);
        check_cuts(&m.0, n, nc)?;
        prop_assert_eq!(m, g);
    }

    #[test]
    fn single_column_coarsening_is_the_1d_min_max_partition(
        weights in prop::collection::vec(0u64..40, 1..14),
        k in 1usize..6,
        col_w in 0u64..5,
    ) {
        // Against one column every pass is the 1-D min-max partition of the
        // rows, shifted by the column's weight.
        let n = weights.len() as u32;
        let cand = vec![(0, 0); n as usize];
        let sg = SparseGrid::new(n, 1, weights.clone(), vec![col_w], Vec::new(), cand);
        let (cuts, cols) = coarsen(&sg, &CoarsenConfig { nc: k, iters: 2, monotonic: true });
        check_cuts(&cuts, n, k)?;
        let got = grid_max_cell_weight(&sg, &cuts, &cols) - col_w;
        let slab_max = |cuts: &[u32]| {
            cuts.windows(2)
                .map(|c| weights[c[0] as usize..c[1] as usize].iter().sum::<u64>())
                .max()
                .unwrap()
        };
        // Exhaustive check over all partitions into <= k slabs (n <= 13).
        let n = weights.len();
        let mut best = u64::MAX;
        // Enumerate cut bitmasks over n-1 positions with < k cuts.
        for mask in 0u32..(1 << (n - 1)) {
            if (mask.count_ones() as usize) < k {
                let mut cuts = vec![0u32];
                for b in 0..n - 1 {
                    if mask & (1 << b) != 0 {
                        cuts.push(b as u32 + 1);
                    }
                }
                cuts.push(n as u32);
                best = best.min(slab_max(&cuts));
            }
        }
        prop_assert_eq!(got, best);
    }
}
