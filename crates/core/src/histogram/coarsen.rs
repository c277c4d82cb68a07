//! Stage 2 — coarsening: `MS → MC` (§III-B).
//!
//! Translates the sparse sample matrix into the tiling crate's
//! [`SparseGrid`], runs the grid-partitioning optimizer (with the
//! MonotonicCoarsening shortcut), and materializes the dense coarsened matrix
//! `MC` with milli-unit weights plus *exact* condition-based candidacy over
//! the coarse key ranges. The ranges are the routing bounds, open at the
//! outer ends; candidacy tests them clamped to each side's key span
//! ([`SampleMatrix::row_span`] / [`SampleMatrix::col_span`]), so a cell is a
//! candidate only if keys the two sides hold inside it may pair. A row or
//! column left without a candidate cell is covered by no region.

use ewh_tiling::{coarsen, CoarsenConfig, Grid, SparseGrid, SparsePoint};

use crate::histogram::sample_matrix::{scale_count, SampleMatrix};
use crate::{CostModel, JoinCondition, Key, KeyRange};

/// The coarsened matrix `MC`: a dense `nr × nc` weighted grid over coarse
/// key ranges.
#[derive(Clone, Debug)]
pub struct CoarsenedMatrix {
    /// Weighted grid in milli-units (inputs folded with `wi`, outputs with
    /// `wo`), with exact candidate flags.
    pub grid: Grid,
    /// Key bounds per coarse row: row `r` covers `[row_bounds[r], row_bounds[r+1])`.
    pub row_bounds: Vec<Key>,
    pub col_bounds: Vec<Key>,
    /// Estimated input tuples per coarse row / column.
    pub row_tuples: Vec<u64>,
    pub col_tuples: Vec<u64>,
    /// Estimated output tuples per coarse cell (row-major).
    pub out_tuples: Vec<u64>,
}

impl CoarsenedMatrix {
    pub fn n_rows(&self) -> usize {
        self.row_tuples.len()
    }

    pub fn n_cols(&self) -> usize {
        self.col_tuples.len()
    }

    /// Key range of coarse row `r`.
    pub fn row_range(&self, r: usize) -> KeyRange {
        range_of(&self.row_bounds, r)
    }

    pub fn col_range(&self, c: usize) -> KeyRange {
        range_of(&self.col_bounds, c)
    }
}

fn range_of(bounds: &[Key], i: usize) -> KeyRange {
    let lo = bounds[i];
    let hi = if i + 2 == bounds.len() {
        Key::MAX
    } else {
        bounds[i + 1] - 1
    };
    KeyRange::new(lo, hi)
}

/// Stage 2 driver.
pub fn coarsen_sample_matrix(
    ms: &SampleMatrix,
    cond: &JoinCondition,
    cost: &CostModel,
    nc: usize,
    iters: usize,
    monotonic: bool,
) -> CoarsenedMatrix {
    let nr_fine = ms.n_rows() as u32;
    let nc_fine = ms.n_cols() as u32;

    // Per-point output weight in milli-units: wo · m / so, rounded.
    let pt_w = if ms.so == 0 {
        0
    } else {
        ((cost.wo_milli as u128 * ms.m as u128 + ms.so as u128 / 2) / ms.so as u128) as u64
    };
    let points: Vec<SparsePoint> = ms
        .points
        .iter()
        .map(|&(r, c)| SparsePoint {
            row: r,
            col: c,
            w: pt_w,
        })
        .collect();

    let sg = SparseGrid::new(
        nr_fine,
        nc_fine,
        ms.row_tuples.iter().map(|&t| cost.wi_milli * t).collect(),
        ms.col_tuples.iter().map(|&t| cost.wi_milli * t).collect(),
        points,
        ms.cand.clone(),
    );
    let cfg = CoarsenConfig {
        nc,
        iters,
        monotonic,
    };
    let (row_cuts, col_cuts) = coarsen(&sg, &cfg);

    materialize(ms, cond, cost, &row_cuts, &col_cuts)
}

/// Builds the dense `MC` for given cuts (also used directly by ablations that
/// want to bypass the optimizer with uniform cuts).
pub(crate) fn materialize(
    ms: &SampleMatrix,
    cond: &JoinCondition,
    cost: &CostModel,
    row_cuts: &[u32],
    col_cuts: &[u32],
) -> CoarsenedMatrix {
    let nr = row_cuts.len() - 1;
    let nc = col_cuts.len() - 1;

    // Key bounds of the coarse grid from the fine histogram bounds.
    let row_bounds: Vec<Key> = (0..=nr)
        .map(|r| {
            if r == nr {
                Key::MAX
            } else {
                ms.row_hist.bucket_range(row_cuts[r] as usize).0
            }
        })
        .collect();
    let col_bounds: Vec<Key> = (0..=nc)
        .map(|c| {
            if c == nc {
                Key::MAX
            } else {
                ms.col_hist.bucket_range(col_cuts[c] as usize).0
            }
        })
        .collect();

    let mut row_tuples = vec![0u64; nr];
    for (r, t) in row_tuples.iter_mut().enumerate() {
        *t = ms.row_tuples[row_cuts[r] as usize..row_cuts[r + 1] as usize]
            .iter()
            .sum();
    }
    let mut col_tuples = vec![0u64; nc];
    for (c, t) in col_tuples.iter_mut().enumerate() {
        *t = ms.col_tuples[col_cuts[c] as usize..col_cuts[c + 1] as usize]
            .iter()
            .sum();
    }

    // Output sample counts per coarse cell, then scale by m/so.
    let mut counts = vec![0u64; nr * nc];
    for &(pr, pc) in &ms.points {
        let r = slab_of(row_cuts, pr);
        let c = slab_of(col_cuts, pc);
        counts[r * nc + c] += 1;
    }
    let out_tuples: Vec<u64> = counts
        .iter()
        .map(|&cnt| scale_count(cnt, ms.m, ms.so.max(1)))
        .collect();

    // Exact candidacy over the keys each coarse cell holds: its key ranges
    // clamped to the two sides' spans (the boundary-only check is exact for
    // monotonic conditions; on the open outer ranges it is not).
    let mut cand = vec![false; nr * nc];
    for r in 0..nr {
        let rr = range_of(&row_bounds, r).intersect(&ms.row_span);
        for c in 0..nc {
            let cr = range_of(&col_bounds, c).intersect(&ms.col_span);
            cand[r * nc + c] = cond.candidate(&rr, &cr);
        }
    }
    // Every sampled output point must land in a candidate cell.
    debug_assert!(
        counts
            .iter()
            .zip(&cand)
            .all(|(&cnt, &is_cand)| cnt == 0 || is_cand),
        "output sample hit a non-candidate coarse cell"
    );

    let grid = Grid::new(
        &row_tuples
            .iter()
            .map(|&t| cost.wi_milli * t)
            .collect::<Vec<_>>(),
        &col_tuples
            .iter()
            .map(|&t| cost.wi_milli * t)
            .collect::<Vec<_>>(),
        &out_tuples
            .iter()
            .map(|&t| cost.wo_milli * t)
            .collect::<Vec<_>>(),
        &cand,
    );

    CoarsenedMatrix {
        grid,
        row_bounds,
        col_bounds,
        row_tuples,
        col_tuples,
        out_tuples,
    }
}

#[inline]
fn slab_of(cuts: &[u32], fine: u32) -> usize {
    cuts.partition_point(|&c| c <= fine) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::{build_sample_matrix, HistogramParams};

    fn small_ms() -> (SampleMatrix, JoinCondition) {
        let r1: Vec<Key> = (0..4000).map(|i| (i * 7) % 4000).collect();
        let r2: Vec<Key> = (0..4000).map(|i| (i * 11) % 4000).collect();
        let cond = JoinCondition::Band { beta: 2 };
        let params = HistogramParams {
            j: 4,
            ..Default::default()
        };
        (build_sample_matrix(&r1, &r2, &cond, &params), cond)
    }

    #[test]
    fn coarse_totals_are_preserved() {
        let (ms, cond) = small_ms();
        let cost = CostModel::band();
        let mc = coarsen_sample_matrix(&ms, &cond, &cost, 8, 4, true);
        assert!(mc.n_rows() <= 8 && mc.n_cols() <= 8);
        assert_eq!(mc.row_tuples.iter().sum::<u64>(), 4000);
        assert_eq!(mc.col_tuples.iter().sum::<u64>(), 4000);
        // Scaled output estimates must add up to ≈ m (rounding per cell).
        let est: u64 = mc.out_tuples.iter().sum();
        let lo = ms.m.saturating_sub(ms.so as u64);
        assert!(
            est >= lo && est <= ms.m + ms.so as u64,
            "est {est} vs m {}",
            ms.m
        );
    }

    #[test]
    fn bounds_are_monotone_and_cover_key_space() {
        let (ms, cond) = small_ms();
        let cost = CostModel::band();
        let mc = coarsen_sample_matrix(&ms, &cond, &cost, 8, 4, true);
        assert_eq!(mc.row_bounds[0], Key::MIN);
        assert_eq!(*mc.row_bounds.last().unwrap(), Key::MAX);
        assert!(mc.row_bounds.windows(2).all(|w| w[0] < w[1]));
        assert!(mc.col_bounds.windows(2).all(|w| w[0] < w[1]));
        // row_range / col_range partition the key space.
        let mut lo = Key::MIN;
        for r in 0..mc.n_rows() {
            let range = mc.row_range(r);
            assert_eq!(range.lo, lo);
            if r + 1 < mc.n_rows() {
                lo = range.hi + 1;
            } else {
                assert_eq!(range.hi, Key::MAX);
            }
        }
    }

    /// `R1` over `0..8000`, `R2` over `2000..4000`: three quarters of `R1`
    /// lie outside `R2`'s span, on both sides of it.
    fn straddling_ms(cond: JoinCondition) -> (SampleMatrix, Vec<Key>, Vec<Key>) {
        let r1: Vec<Key> = (0..4000).map(|i| (i * 7) % 4000 * 2).collect();
        let r2: Vec<Key> = (0..2000).map(|i| 2000 + (i * 11) % 2000).collect();
        let params = HistogramParams {
            j: 4,
            ..Default::default()
        };
        (build_sample_matrix(&r1, &r2, &cond, &params), r1, r2)
    }

    const CONDS: [JoinCondition; 5] = [
        JoinCondition::Equi,
        JoinCondition::Band { beta: 2 },
        JoinCondition::Inequality(crate::IneqOp::Lt),
        JoinCondition::Inequality(crate::IneqOp::Gt),
        JoinCondition::EquiBand { shift: 16, beta: 3 },
    ];

    #[test]
    fn candidates_are_exact_for_the_condition() {
        // Candidacy is the condition's check on each cell's key ranges
        // clamped to the keys the two sides hold, not on the open ranges
        // that route: on two sides over one span, and on straddling spans.
        let straddling = CONDS.map(|cond| (straddling_ms(cond).0, cond));
        for (ms, cond) in std::iter::once(small_ms()).chain(straddling) {
            let mc = coarsen_sample_matrix(&ms, &cond, &CostModel::band(), 6, 4, true);
            for r in 0..mc.n_rows() {
                for c in 0..mc.n_cols() {
                    let rows = mc.row_range(r).intersect(&ms.row_span);
                    let cols = mc.col_range(c).intersect(&ms.col_span);
                    let expect = cond.candidate(&rows, &cols);
                    assert_eq!(mc.grid.is_candidate(r as u32, c as u32), expect);
                }
            }
        }
    }

    #[test]
    fn a_cell_is_non_candidate_only_where_no_pair_of_its_keys_joins() {
        // Brute force over the census keys: a non-candidate cell holds no
        // joining pair; and on a band join, the rows of `R1` beyond `R2`'s
        // keys are cut off, where the open outer ranges made them
        // candidates.
        for cond in CONDS {
            let (ms, r1, r2) = straddling_ms(cond);
            assert_eq!((ms.row_span.lo, ms.row_span.hi), (0, 7998));
            assert_eq!((ms.col_span.lo, ms.col_span.hi), (2000, 3999));
            let mc = coarsen_sample_matrix(&ms, &cond, &CostModel::band(), 8, 4, true);
            let in_range = |keys: &[Key], range: KeyRange| -> Vec<Key> {
                keys.iter()
                    .copied()
                    .filter(|&k| range.contains(k))
                    .collect()
            };
            let mut dead_rows = 0;
            for r in 0..mc.n_rows() {
                let a = in_range(&r1, mc.row_range(r));
                let mut live = false;
                for c in 0..mc.n_cols() {
                    if mc.grid.is_candidate(r as u32, c as u32) {
                        live = true;
                        continue;
                    }
                    let b = in_range(&r2, mc.col_range(c));
                    let joins = a.iter().any(|&x| b.iter().any(|&y| cond.matches(x, y)));
                    assert!(!joins, "{cond:?}: non-candidate cell ({r},{c}) joins");
                }
                dead_rows += !live as usize;
            }
            if cond == (JoinCondition::Band { beta: 2 }) {
                assert!(dead_rows > 0, "no row beyond R2's keys was cut off");
            }
        }
    }

    #[test]
    fn grid_weights_combine_input_and_output() {
        let (ms, cond) = small_ms();
        let cost = CostModel::band();
        let mc = coarsen_sample_matrix(&ms, &cond, &cost, 4, 4, true);
        let nc = mc.n_cols();
        for r in 0..mc.n_rows() {
            for c in 0..nc {
                let rect = ewh_tiling::Rect::new(r as u32, c as u32, r as u32, c as u32);
                let got = mc.grid.weight(rect);
                // Reconstruct from tuple estimates; out weight rounding means
                // cell-level equality only up to the point quantum.
                let expect = cost.weight(
                    mc.row_tuples[r] + mc.col_tuples[c],
                    mc.out_tuples[r * nc + c],
                );
                let slack = cost.wo_milli * (ms.m / ms.so.max(1) as u64 + 1);
                assert!(
                    got.abs_diff(expect) <= slack,
                    "cell ({r},{c}): {got} vs {expect} (slack {slack})"
                );
            }
        }
    }
}
