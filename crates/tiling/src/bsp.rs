//! Baseline Binary Space Partition (BSP) tiling.
//!
//! Algorithm 1 of the paper, after Berman, DasGupta & Muthukrishnan (SODA
//! 2002): dynamic programming over *every* rectangle of the grid. Given a
//! maximum region weight δ it produces an optimal hierarchical partitioning
//! (recursive binary splits) covering all candidate cells with the minimum
//! number of regions, each of weight ≤ δ. A rectangle is first shrunk to its
//! minimal candidate rectangle so regions never pay for empty margins.
//!
//! The DP table holds all `O(n⁴)` rectangles and each rectangle tries `O(n)`
//! splitters, so this costs `O(n⁵)` time — practical only for small grids.
//! It exists as the accuracy baseline for [`crate::monotonic_bsp`], which
//! must produce the same region counts on monotonic matrices.

use crate::{region_shares, Grid, Rect, INFEASIBLE};

/// How a rectangle is covered in the DP solution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Plan {
    /// No candidate cells: nothing to cover.
    Empty,
    /// The rectangle is not minimal: defer to its shrunk form.
    Shrink,
    /// Covered by a single region (its own minimal candidate rectangle).
    Leaf,
    /// Split horizontally after row `k`.
    H(u32),
    /// Split vertically after column `k`.
    V(u32),
}

/// Dense bottom-up BSP solver. Reusable across δ values (the rectangle
/// enumeration order is δ-independent).
pub struct BspSolver<'a> {
    grid: &'a Grid,
    /// All rectangles sorted by ascending semi-perimeter. Any rectangle's
    /// shrunk form and split parts have strictly smaller semi-perimeter (or
    /// are the rectangle itself), so a single pass in this order sees every
    /// dependency first.
    order: Vec<Rect>,
    /// Triangular index helpers: `row_base[r0] + (r1 - r0)` enumerates row
    /// intervals.
    row_base: Vec<usize>,
    col_base: Vec<usize>,
    n_row_ivs: usize,
    n_col_ivs: usize,
}

impl<'a> BspSolver<'a> {
    /// Builds the solver. Memory is `O(n_rows² · n_cols²)`; callers should
    /// keep grids small (the paper's point is exactly that this baseline does
    /// not scale).
    pub fn new(grid: &'a Grid) -> Self {
        let nr = grid.n_rows() as usize;
        let nc = grid.n_cols() as usize;
        let mut row_base = Vec::with_capacity(nr + 1);
        let mut acc = 0usize;
        for r0 in 0..nr {
            row_base.push(acc);
            acc += nr - r0;
        }
        row_base.push(acc);
        let n_row_ivs = acc;
        let mut col_base = Vec::with_capacity(nc + 1);
        let mut acc = 0usize;
        for c0 in 0..nc {
            col_base.push(acc);
            acc += nc - c0;
        }
        col_base.push(acc);
        let n_col_ivs = acc;

        let mut order = Vec::with_capacity(n_row_ivs * n_col_ivs);
        for r0 in 0..nr as u32 {
            for r1 in r0..nr as u32 {
                for c0 in 0..nc as u32 {
                    for c1 in c0..nc as u32 {
                        order.push(Rect::new(r0, c0, r1, c1));
                    }
                }
            }
        }
        order.sort_by_key(|r| (r.semi_perimeter(), r.pack()));

        BspSolver {
            grid,
            order,
            row_base,
            col_base,
            n_row_ivs,
            n_col_ivs,
        }
    }

    #[inline]
    fn index(&self, r: Rect) -> usize {
        let ri = self.row_base[r.r0 as usize] + (r.r1 - r.r0) as usize;
        let ci = self.col_base[r.c0 as usize] + (r.c1 - r.c0) as usize;
        ri * self.n_col_ivs + ci
    }

    /// Number of rectangles in the DP table (`O(n⁴)`), exposed for the
    /// space-complexity comparison of Table III.
    pub fn state_count(&self) -> usize {
        self.n_row_ivs * self.n_col_ivs
    }

    /// Weight of every rectangle of the DP table: the values of δ at which
    /// `solve(δ)` can change.
    pub(crate) fn rect_weights(&self) -> Vec<u64> {
        self.order.iter().map(|&r| self.grid.weight(r)).collect()
    }

    /// Solves for a given δ, under [`MonotonicBspSolver::solve`]'s rule: a
    /// single cell heavier than δ is a region charged `⌈w/δ⌉`. `None` only
    /// when the charge overflows.
    ///
    /// [`MonotonicBspSolver::solve`]: crate::MonotonicBspSolver::solve
    pub fn solve(&self, delta: u64) -> Option<Vec<Rect>> {
        let mut count = vec![0u32; self.state_count()];
        let mut plan = vec![Plan::Empty; self.state_count()];

        for &rect in &self.order {
            let idx = self.index(rect);
            let Some(rm) = self.grid.shrink(rect) else {
                // count stays 0, plan stays Empty.
                continue;
            };
            if rm != rect {
                let midx = self.index(rm);
                count[idx] = count[midx];
                plan[idx] = Plan::Shrink;
                continue;
            }
            let weight = self.grid.weight(rect);
            if weight <= delta || rect.area() == 1 {
                count[idx] = region_shares(weight, delta);
                plan[idx] = Plan::Leaf;
                continue;
            }
            let mut best = INFEASIBLE;
            let mut best_plan = Plan::Leaf;
            for k in rect.r0..rect.r1 {
                let (a, b) = rect.split_h(k);
                let c = count[self.index(a)].saturating_add(count[self.index(b)]);
                if c < best {
                    best = c;
                    best_plan = Plan::H(k);
                }
            }
            for k in rect.c0..rect.c1 {
                let (a, b) = rect.split_v(k);
                let c = count[self.index(a)].saturating_add(count[self.index(b)]);
                if c < best {
                    best = c;
                    best_plan = Plan::V(k);
                }
            }
            count[idx] = best.min(INFEASIBLE);
            plan[idx] = best_plan;
        }

        let full = self.grid.full();
        if count[self.index(full)] >= INFEASIBLE {
            return None;
        }
        let mut regions = Vec::with_capacity(count[self.index(full)] as usize);
        self.extract(&plan, full, &mut regions);
        Some(regions)
    }

    fn extract(&self, plan: &[Plan], rect: Rect, out: &mut Vec<Rect>) {
        match plan[self.index(rect)] {
            Plan::Empty => {}
            Plan::Shrink => {
                let rm = self
                    .grid
                    .shrink(rect)
                    .expect("Shrink plan implies candidates");
                self.extract(plan, rm, out);
            }
            Plan::Leaf => out.push(rect),
            Plan::H(k) => {
                let (a, b) = rect.split_h(k);
                self.extract(plan, a, out);
                self.extract(plan, b, out);
            }
            Plan::V(k) => {
                let (a, b) = rect.split_v(k);
                self.extract(plan, a, out);
                self.extract(plan, b, out);
            }
        }
    }
}

/// One-shot baseline BSP: regions covering all candidate cells, each of
/// weight ≤ δ unless it is a single cell.
pub fn bsp(grid: &Grid, delta: u64) -> Option<Vec<Rect>> {
    BspSolver::new(grid).solve(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_partition;

    fn band_grid(n: usize, half_width: i64) -> Grid {
        let mut out = vec![0u64; n * n];
        let mut cand = vec![false; n * n];
        for i in 0..n {
            for j in 0..n {
                if (i as i64 - j as i64).abs() <= half_width {
                    out[i * n + j] = 1;
                    cand[i * n + j] = true;
                }
            }
        }
        Grid::new(&vec![1u64; n], &vec![1u64; n], &out, &cand)
    }

    #[test]
    fn whole_grid_fits_one_region_at_large_delta() {
        let g = band_grid(6, 1);
        let regions = bsp(&g, u64::MAX / 2).unwrap();
        assert_eq!(regions.len(), 1);
        validate_partition(&g, &regions, u64::MAX / 2).unwrap();
    }

    #[test]
    fn small_delta_is_infeasible() {
        let g = band_grid(6, 1);
        // Even a single candidate cell weighs 1 (row) + 1 (col) + 1 (out) = 3.
        // A delta below that no longer is infeasible: at delta 2 every one
        // of the 16 cells is its own region, charged ⌈3/2⌉ of the budget —
        // which makes it infeasible for any budget under 32. Only delta 0,
        // which no number of regions can pay for, has no partition at all.
        let regions = bsp(&g, 2).expect("a cell over delta is charged, not refused");
        assert!(regions.iter().all(|r| r.area() == 1));
        assert_eq!(validate_partition(&g, &regions, 2), Ok(16 * 2));
        assert!(bsp(&g, 0).is_none());
    }

    #[test]
    fn tight_delta_splits_into_valid_regions() {
        let g = band_grid(8, 1);
        for delta in [3u64, 6, 10, 20, 40] {
            let regions = bsp(&g, delta).expect("delta >= cell weight is feasible");
            validate_partition(&g, &regions, delta).unwrap();
        }
    }

    #[test]
    fn region_count_decreases_with_delta() {
        let g = band_grid(10, 2);
        let solver = BspSolver::new(&g);
        let mut prev = usize::MAX;
        for delta in [4u64, 8, 16, 32, 64, 128] {
            let n = solver.solve(delta).unwrap().len();
            assert!(n <= prev, "count must be non-increasing in delta");
            prev = n;
        }
        assert_eq!(prev, 1);
    }

    #[test]
    fn empty_grid_yields_no_regions() {
        let g = Grid::new(&[1, 1], &[1, 1], &[0, 0, 0, 0], &[false; 4]);
        assert_eq!(bsp(&g, 1).unwrap(), vec![]);
    }

    #[test]
    fn shrink_plan_pays_no_empty_margin() {
        // Single candidate in the corner of a 5x5 grid: the region should be
        // that one cell, not the whole grid.
        let n = 5;
        let mut out = vec![0u64; n * n];
        let mut cand = vec![false; n * n];
        out[0] = 7;
        cand[0] = true;
        let g = Grid::new(&vec![10u64; n], &vec![10u64; n], &out, &cand);
        let regions = bsp(&g, 27).unwrap();
        assert_eq!(regions, vec![Rect::new(0, 0, 0, 0)]);
    }
}
