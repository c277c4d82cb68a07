//! Stage 3 — regionalization: `MC → MH` (§III-C).
//!
//! Binary search over the maximum region weight δ, each probe running a
//! tiling algorithm (MONOTONICBSP by default, the dense baseline BSP for
//! cross-checks) that covers all candidate `MC` cells with the minimum number
//! of rectangular regions of weight ≤ δ. The smallest δ that fits within the
//! available `J` regions wins; regions are then translated back to key
//! ranges with their input/output estimates attached.
//!
//! A single `MC` cell heavier than δ — one hot key against one hot key is
//! the case no cut can split — is charged `k = ⌈w/δ⌉` of the `J` regions by
//! the tiling, and becomes a *block* here: `k` regions over the cell's key
//! rectangle, laid out `a × b` as the 1-Bucket scheme would (the shape that
//! minimizes the per-region input `rows/a + cols/b`), with the cell's
//! estimates divided among them. See [`crate::GridBlock`] for the routing.

use ewh_tiling::{partition_max_weight, TilingAlgo};

use crate::histogram::{CoarsenedMatrix, HistogramParams};
use crate::schemes::choose_shape;
use crate::{KeyRange, Region};

/// The equi-weight histogram `MH`.
#[derive(Clone, Debug)]
pub struct Regionalization {
    /// Regions in key-range space with tuple estimates, a block's regions
    /// together (each with the block's rectangle and its share of the
    /// estimates).
    pub regions: Vec<Region>,
    /// The tiling in coarse-grid coordinates `(r0, r1, c0, c1)` — the router
    /// indexes grid cells, not keys.
    pub rects: Vec<(usize, usize, usize, usize)>,
    /// Block shape `(a, b)` of each tiling rectangle; `(1, 1)` is one
    /// ordinary region.
    pub shapes: Vec<(u32, u32)>,
    /// δ found by the binary search (milli-units).
    pub delta: u64,
    /// Estimated maximum region weight (milli-units) — `CSIO-est` in Fig 4h.
    pub est_max_weight: u64,
}

/// Stage 3, at the default build's thread count
/// ([`HistogramParams::threads`]).
pub fn regionalize(mc: &CoarsenedMatrix, j: usize, baseline_bsp: bool) -> Regionalization {
    regionalize_with_threads(mc, j, baseline_bsp, HistogramParams::default().threads)
}

/// Stage 3: at `threads >= 2` MONOTONICBSP's tables are filled on
/// two threads. The result does not depend on `threads`.
pub fn regionalize_with_threads(
    mc: &CoarsenedMatrix,
    j: usize,
    baseline_bsp: bool,
    threads: usize,
) -> Regionalization {
    let algo = if baseline_bsp {
        TilingAlgo::Bsp
    } else {
        TilingAlgo::MonotonicBsp
    };
    let partition = partition_max_weight(&mc.grid, j, algo, threads);

    let ncols = mc.n_cols();
    let mut regions = Vec::with_capacity(partition.regions.len());
    let mut rects = Vec::with_capacity(partition.regions.len());
    let mut shapes = Vec::with_capacity(partition.regions.len());
    for (r, &shares) in partition.regions.iter().zip(&partition.shares) {
        let rows = KeyRange::new(
            mc.row_range(r.r0 as usize).lo,
            mc.row_range(r.r1 as usize).hi,
        );
        let cols = KeyRange::new(
            mc.col_range(r.c0 as usize).lo,
            mc.col_range(r.c1 as usize).hi,
        );
        let row_tuples: u64 = mc.row_tuples[r.r0 as usize..=r.r1 as usize].iter().sum();
        let col_tuples: u64 = mc.col_tuples[r.c0 as usize..=r.c1 as usize].iter().sum();
        let mut est_output = 0u64;
        for row in r.r0 as usize..=r.r1 as usize {
            est_output += mc.out_tuples[row * ncols + r.c0 as usize..=row * ncols + r.c1 as usize]
                .iter()
                .sum::<u64>();
        }
        let (a, b) = choose_shape(shares as usize, row_tuples, col_tuples);
        let region = Region {
            rows,
            cols,
            est_input: row_tuples.div_ceil(a as u64) + col_tuples.div_ceil(b as u64),
            est_output: est_output.div_ceil(shares as u64),
        };
        regions.extend((0..shares).map(|_| region));
        rects.push((r.r0 as usize, r.r1 as usize, r.c0 as usize, r.c1 as usize));
        shapes.push((a, b));
    }

    Regionalization {
        regions,
        rects,
        shapes,
        delta: partition.delta,
        est_max_weight: partition.max_weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::{build_sample_matrix, coarsen_sample_matrix};
    use crate::{CostModel, JoinCondition, Key};

    fn mc_for(j: usize) -> CoarsenedMatrix {
        let r1: Vec<Key> = (0..6000).map(|i| (i * 13) % 6000).collect();
        let r2: Vec<Key> = (0..6000).map(|i| (i * 17) % 6000).collect();
        let cond = JoinCondition::Band { beta: 3 };
        let params = HistogramParams {
            j,
            ..Default::default()
        };
        let ms = build_sample_matrix(&r1, &r2, &cond, &params);
        coarsen_sample_matrix(&ms, &cond, &CostModel::band(), 2 * j, 4, true)
    }

    #[test]
    fn produces_at_most_j_regions_with_sane_estimates() {
        for j in [2usize, 4, 8] {
            let mc = mc_for(j);
            let reg = regionalize(&mc, j, false);
            assert!(!reg.regions.is_empty());
            assert!(
                reg.regions.len() <= j,
                "j={j}: {} regions",
                reg.regions.len()
            );
            assert!(reg.est_max_weight <= reg.delta);
            let cost = CostModel::band();
            // est_max_weight must equal the max region weight recomputed
            // from the estimates (up to the output rounding folded into the
            // grid weights, which is exact here by construction).
            let recomputed = reg
                .regions
                .iter()
                .map(|r| r.est_weight(&cost))
                .max()
                .unwrap();
            assert_eq!(recomputed, reg.est_max_weight);
        }
    }

    #[test]
    fn more_machines_reduce_max_weight() {
        let mc = mc_for(8);
        let w2 = regionalize(&mc, 2, false).est_max_weight;
        let w4 = regionalize(&mc, 4, false).est_max_weight;
        let w8 = regionalize(&mc, 8, false).est_max_weight;
        assert!(w2 >= w4 && w4 >= w8, "{w2} {w4} {w8}");
    }

    #[test]
    fn baseline_and_monotonic_agree_on_delta() {
        let mc = mc_for(3); // small nc so the dense DP stays cheap
        let a = regionalize(&mc, 3, true);
        let b = regionalize(&mc, 3, false);
        assert_eq!(a.delta, b.delta);
    }

    #[test]
    fn regions_are_disjoint_rectangles_in_key_space() {
        let mc = mc_for(6);
        let reg = regionalize(&mc, 6, false);
        for (i, a) in reg.regions.iter().enumerate() {
            for b in &reg.regions[i + 1..] {
                let overlap = a.rows.intersects(&b.rows) && a.cols.intersects(&b.cols);
                assert!(!overlap, "regions {a:?} and {b:?} overlap");
            }
        }
    }
}
