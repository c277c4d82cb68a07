use crate::Rect;

/// A weighted grid (the coarsened matrix `MC` of the paper) with O(1)
/// rectangle queries.
///
/// A rectangle's weight models the work of the machine assigned to it:
///
/// ```text
/// w(r) = Σ row_w[i]  (rows intersecting r)     — input contribution of R1
///      + Σ col_w[j]  (columns intersecting r)  — input contribution of R2
///      + Σ out_w[i][j] (cells of r)            — output contribution
/// ```
///
/// Callers fold the cost-model factors (`wi`, `wo`) into the stored values so
/// that the tiling algorithms stay cost-model agnostic. Candidate flags mark
/// cells that may produce output; tiling must cover every candidate cell
/// exactly once and may cover non-candidates at most once.
#[derive(Clone, Debug)]
pub struct Grid {
    n_rows: u32,
    n_cols: u32,
    cand: Vec<bool>,
    /// Prefix sums of per-row input weight: `row_pfx[i] = Σ row_w[..i]`.
    row_pfx: Vec<u64>,
    col_pfx: Vec<u64>,
    /// 2-D prefix sums of output weight, `(n_rows+1) × (n_cols+1)`.
    out_pfx: Vec<u64>,
    /// 2-D prefix sums of candidate indicator.
    cand_pfx: Vec<u32>,
}

impl Grid {
    /// Builds a grid from per-row/per-column input weights, dense row-major
    /// per-cell output weights, and candidate flags.
    ///
    /// # Panics
    /// If dimensions are inconsistent or exceed `u16::MAX` per side (the
    /// rectangle packing limit).
    pub fn new(row_w: &[u64], col_w: &[u64], out_w: &[u64], cand: &[bool]) -> Self {
        let n_rows = row_w.len();
        let n_cols = col_w.len();
        assert!(n_rows > 0 && n_cols > 0, "empty grid");
        assert!(
            n_rows < 1 << 16 && n_cols < 1 << 16,
            "grid side exceeds u16"
        );
        assert_eq!(out_w.len(), n_rows * n_cols, "out_w dimension mismatch");
        assert_eq!(cand.len(), n_rows * n_cols, "cand dimension mismatch");

        let mut row_pfx = Vec::with_capacity(n_rows + 1);
        row_pfx.push(0);
        for &w in row_w {
            row_pfx.push(row_pfx.last().unwrap() + w);
        }
        let mut col_pfx = Vec::with_capacity(n_cols + 1);
        col_pfx.push(0);
        for &w in col_w {
            col_pfx.push(col_pfx.last().unwrap() + w);
        }

        let stride = n_cols + 1;
        let mut out_pfx = vec![0u64; (n_rows + 1) * stride];
        let mut cand_pfx = vec![0u32; (n_rows + 1) * stride];
        for i in 0..n_rows {
            for j in 0..n_cols {
                let cell = i * n_cols + j;
                out_pfx[(i + 1) * stride + j + 1] =
                    out_w[cell] + out_pfx[i * stride + j + 1] + out_pfx[(i + 1) * stride + j]
                        - out_pfx[i * stride + j];
                cand_pfx[(i + 1) * stride + j + 1] = cand[cell] as u32
                    + cand_pfx[i * stride + j + 1]
                    + cand_pfx[(i + 1) * stride + j]
                    - cand_pfx[i * stride + j];
            }
        }

        Grid {
            n_rows: n_rows as u32,
            n_cols: n_cols as u32,
            cand: cand.to_vec(),
            row_pfx,
            col_pfx,
            out_pfx,
            cand_pfx,
        }
    }

    #[inline]
    pub fn n_rows(&self) -> u32 {
        self.n_rows
    }

    #[inline]
    pub fn n_cols(&self) -> u32 {
        self.n_cols
    }

    /// The rectangle spanning the whole grid.
    #[inline]
    pub fn full(&self) -> Rect {
        Rect::new(0, 0, self.n_rows - 1, self.n_cols - 1)
    }

    #[inline]
    fn stride(&self) -> usize {
        self.n_cols as usize + 1
    }

    /// Input weight of a rectangle (row part + column part).
    #[inline]
    pub fn input_weight(&self, r: Rect) -> u64 {
        let rows = self.row_pfx[r.r1 as usize + 1] - self.row_pfx[r.r0 as usize];
        let cols = self.col_pfx[r.c1 as usize + 1] - self.col_pfx[r.c0 as usize];
        rows + cols
    }

    /// Output weight of a rectangle.
    #[inline]
    pub fn output_weight(&self, r: Rect) -> u64 {
        let s = self.stride();
        self.out_pfx[(r.r1 as usize + 1) * s + r.c1 as usize + 1]
            + self.out_pfx[r.r0 as usize * s + r.c0 as usize]
            - self.out_pfx[r.r0 as usize * s + r.c1 as usize + 1]
            - self.out_pfx[(r.r1 as usize + 1) * s + r.c0 as usize]
    }

    /// Total weight `w(r)` of a rectangle.
    #[inline]
    pub fn weight(&self, r: Rect) -> u64 {
        self.input_weight(r) + self.output_weight(r)
    }

    /// Number of candidate cells inside a rectangle.
    #[inline]
    pub fn cand_count(&self, r: Rect) -> u32 {
        let s = self.stride();
        self.cand_pfx[(r.r1 as usize + 1) * s + r.c1 as usize + 1]
            + self.cand_pfx[r.r0 as usize * s + r.c0 as usize]
            - self.cand_pfx[r.r0 as usize * s + r.c1 as usize + 1]
            - self.cand_pfx[(r.r1 as usize + 1) * s + r.c0 as usize]
    }

    /// Is the cell `(row, col)` a candidate (may produce output)?
    #[inline]
    pub fn is_candidate(&self, row: u32, col: u32) -> bool {
        self.cand[row as usize * self.n_cols as usize + col as usize]
    }

    /// All candidate cells in row-major order.
    pub fn candidate_cells(&self) -> Vec<(u32, u32)> {
        let mut cells = Vec::new();
        for i in 0..self.n_rows {
            for j in 0..self.n_cols {
                if self.is_candidate(i, j) {
                    cells.push((i, j));
                }
            }
        }
        cells
    }

    /// The *minimal candidate rectangle* of `r`: the bounding box of the
    /// candidate cells inside `r`, or `None` when `r` holds no candidates.
    ///
    /// This is the `MINIMALCANDIDATERECTANGLE` primitive of Algorithms 1-2 in
    /// the paper. Each bound is found by a binary search over candidate-count
    /// prefix sums, so shrinking costs `O(log n)` regardless of the matrix
    /// content (monotonic or not).
    pub fn shrink(&self, r: Rect) -> Option<Rect> {
        if self.cand_count(r) == 0 {
            return None;
        }
        // First row r0' >= r.r0 such that rows r.r0..=r0' contain a candidate
        // within the column range.
        let first_row = self.bisect(r.r0, r.r1, |k| {
            self.cand_count(Rect::new(r.r0, r.c0, k, r.c1)) > 0
        });
        let last_row = self.bisect_last(r.r0, r.r1, |k| {
            self.cand_count(Rect::new(k, r.c0, r.r1, r.c1)) > 0
        });
        let first_col = self.bisect(r.c0, r.c1, |k| {
            self.cand_count(Rect::new(r.r0, r.c0, r.r1, k)) > 0
        });
        let last_col = self.bisect_last(r.c0, r.c1, |k| {
            self.cand_count(Rect::new(r.r0, k, r.r1, r.c1)) > 0
        });
        Some(Rect::new(first_row, first_col, last_row, last_col))
    }

    /// Smallest `k` in `[lo, hi]` with `pred(k)` true; `pred` must be
    /// monotone (false.. then true..) and true at `hi`.
    #[inline]
    fn bisect(&self, lo: u32, hi: u32, pred: impl Fn(u32) -> bool) -> u32 {
        let (mut lo, mut hi) = (lo, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Largest `k` in `[lo, hi]` with `pred(k)` true; `pred` must be monotone
    /// (true.. then false..) and true at `lo`.
    #[inline]
    fn bisect_last(&self, lo: u32, hi: u32, pred: impl Fn(u32) -> bool) -> u32 {
        let (mut lo, mut hi) = (lo, hi);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if pred(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }

    /// A lower bound on the summed weight of any candidate-complete
    /// partition: all output weight plus the input weight of every row and
    /// column that holds at least one candidate cell (each must be paid by
    /// at least one region). `covered_weight / j` hence lower-bounds the max
    /// region weight achievable with `j` regions.
    pub fn covered_weight(&self) -> u64 {
        let mut total = self.output_weight(self.full());
        for i in 0..self.n_rows {
            if self.cand_count(Rect::new(i, 0, i, self.n_cols - 1)) > 0 {
                total += self.row_pfx[i as usize + 1] - self.row_pfx[i as usize];
            }
        }
        for j in 0..self.n_cols {
            if self.cand_count(Rect::new(0, j, self.n_rows - 1, j)) > 0 {
                total += self.col_pfx[j as usize + 1] - self.col_pfx[j as usize];
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4×4 band grid: candidates on |i-j| <= 1, one output unit per candidate
    /// cell, unit row/col input weights.
    fn band_grid() -> Grid {
        let n = 4;
        let mut out = vec![0u64; n * n];
        let mut cand = vec![false; n * n];
        for i in 0..n {
            for j in 0..n {
                if (i as i64 - j as i64).abs() <= 1 {
                    out[i * n + j] = 1;
                    cand[i * n + j] = true;
                }
            }
        }
        Grid::new(&[1; 4], &[1; 4], &out, &cand)
    }

    #[test]
    fn weights_match_brute_force() {
        let g = band_grid();
        for r0 in 0..4u32 {
            for r1 in r0..4 {
                for c0 in 0..4u32 {
                    for c1 in c0..4 {
                        let r = Rect::new(r0, c0, r1, c1);
                        let mut out = 0u64;
                        let mut cand = 0u32;
                        for i in r0..=r1 {
                            for j in c0..=c1 {
                                if (i as i64 - j as i64).abs() <= 1 {
                                    out += 1;
                                    cand += 1;
                                }
                            }
                        }
                        let input = (r1 - r0 + 1) as u64 + (c1 - c0 + 1) as u64;
                        assert_eq!(g.output_weight(r), out);
                        assert_eq!(g.cand_count(r), cand);
                        assert_eq!(g.weight(r), input + out);
                    }
                }
            }
        }
    }

    #[test]
    fn shrink_finds_bounding_box() {
        let g = band_grid();
        // Upper-right corner rect holds only candidate (2,3) and (3,3)... the
        // band cells with i in 2..=3, j = 3 are (2,3) and (3,3).
        let r = Rect::new(0, 3, 3, 3);
        assert_eq!(g.shrink(r), Some(Rect::new(2, 3, 3, 3)));
        // A rect with no candidates shrinks to None.
        assert_eq!(g.shrink(Rect::new(0, 3, 0, 3)), None);
        assert_eq!(g.shrink(Rect::new(3, 0, 3, 0)), None);
        // Full grid is already minimal for a main-diagonal band.
        assert_eq!(g.shrink(g.full()), Some(g.full()));
    }

    #[test]
    fn shrunk_rect_corners_are_candidates_on_monotone_band() {
        // Lemma 3.4: for monotonic matrices, the defining corners of a
        // minimal candidate rectangle are candidate cells.
        let g = band_grid();
        for r0 in 0..4u32 {
            for r1 in r0..4 {
                for c0 in 0..4u32 {
                    for c1 in c0..4 {
                        if let Some(m) = g.shrink(Rect::new(r0, c0, r1, c1)) {
                            assert!(g.is_candidate(m.r0, m.c0), "UL corner of {m:?}");
                            assert!(g.is_candidate(m.r1, m.c1), "LR corner of {m:?}");
                        }
                    }
                }
            }
        }
    }
}
