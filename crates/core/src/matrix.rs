//! The exact join matrix model (§II, Fig. 1) at test scale.
//!
//! The production pipeline never materializes the matrix (that would be the
//! join itself); this module exists so tests, examples and the Fig. 1/Fig. 3
//! visualizations can compute exact outputs, candidate grids, and region
//! weights to compare the schemes' estimates against.

use ewh_sampling::KeyedCounts;

use crate::{JoinCondition, Key, KeyRange, Region};

/// An exact (virtual) join matrix over two relations' sorted keys.
#[derive(Clone, Debug)]
pub struct JoinMatrix {
    r1: Vec<Key>,
    r2: Vec<Key>,
    d2equi: KeyedCounts,
    cond: JoinCondition,
}

impl JoinMatrix {
    pub fn new(mut r1: Vec<Key>, mut r2: Vec<Key>, cond: JoinCondition) -> Self {
        cond.validate();
        r1.sort_unstable();
        r2.sort_unstable();
        let d2equi = KeyedCounts::census(&r2);
        JoinMatrix {
            r1,
            r2,
            d2equi,
            cond,
        }
    }

    pub fn n1(&self) -> usize {
        self.r1.len()
    }

    pub fn n2(&self) -> usize {
        self.r2.len()
    }

    pub fn cond(&self) -> JoinCondition {
        self.cond
    }

    pub fn r1_keys(&self) -> &[Key] {
        &self.r1
    }

    pub fn r2_keys(&self) -> &[Key] {
        &self.r2
    }

    /// Is matrix cell `(i, j)` an output tuple?
    #[inline]
    pub fn is_one(&self, i: usize, j: usize) -> bool {
        self.cond.matches(self.r1[i], self.r2[j])
    }

    /// Exact join output size `m`, in `O(n log n)`.
    pub fn output_count(&self) -> u64 {
        self.r1
            .iter()
            .map(|&a| {
                let jr = self.cond.joinable_range(a);
                self.d2equi.range_count(jr.lo, jr.hi)
            })
            .sum()
    }

    /// Exact `(input, output)` tuple counts of a key-range region: the
    /// ground truth for a machine's work under the paper's metrics (input =
    /// semi-perimeter in tuples, output = result tuples inside the region).
    pub fn region_counts(&self, region: &Region) -> (u64, u64) {
        let rows = count_in_range(&self.r1, &region.rows);
        let cols = count_in_range(&self.r2, &region.cols);
        let lo = self.r1.partition_point(|&k| k < region.rows.lo);
        let hi = self.r1.partition_point(|&k| k <= region.rows.hi);
        let output: u64 = self.r1[lo..hi]
            .iter()
            .map(|&a| {
                let jr = self.cond.joinable_range(a);
                let lo = jr.lo.max(region.cols.lo);
                let hi = jr.hi.min(region.cols.hi);
                self.d2equi.range_count(lo, hi)
            })
            .sum();
        (rows + cols, output)
    }

    /// Candidate flags for an explicit grid of key ranges (row-major).
    pub fn candidate_grid(&self, row_ranges: &[KeyRange], col_ranges: &[KeyRange]) -> Vec<bool> {
        let mut cand = Vec::with_capacity(row_ranges.len() * col_ranges.len());
        for r in row_ranges {
            for c in col_ranges {
                cand.push(self.cond.candidate(r, c));
            }
        }
        cand
    }

    /// Verifies the monotonicity (staircase) property of §III-B on an
    /// explicit grid: per-row candidate cells are one contiguous interval
    /// with non-decreasing endpoints.
    pub fn grid_is_monotonic(&self, row_ranges: &[KeyRange], col_ranges: &[KeyRange]) -> bool {
        let cand = self.candidate_grid(row_ranges, col_ranges);
        let nc = col_ranges.len();
        let mut prev: Option<(usize, usize)> = None;
        for i in 0..row_ranges.len() {
            let row = &cand[i * nc..(i + 1) * nc];
            let lo = match row.iter().position(|&c| c) {
                Some(lo) => lo,
                None => continue,
            };
            let hi = row.iter().rposition(|&c| c).unwrap();
            if row[lo..=hi].iter().any(|&c| !c) {
                return false; // hole inside the interval
            }
            if let Some((plo, phi)) = prev {
                if lo < plo || hi < phi {
                    return false;
                }
            }
            prev = Some((lo, hi));
        }
        true
    }
}

fn count_in_range(sorted: &[Key], r: &KeyRange) -> u64 {
    if r.is_empty() {
        return 0;
    }
    let lo = sorted.partition_point(|&k| k < r.lo);
    let hi = sorted.partition_point(|&k| k <= r.hi);
    (hi - lo) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 1 example: band join |R1.A − R2.A| ≤ 1 over the
    /// listed keys.
    fn fig1() -> JoinMatrix {
        let r1 = vec![17, 13, 9, 9, 20, 3, 6, 19, 5, 5, 15, 23, 3, 22, 25, 7];
        let r2 = vec![19, 15, 11, 10, 2, 3, 3, 9, 22, 5, 5, 17, 26, 9, 25, 3, 2, 7];
        JoinMatrix::new(r1, r2, JoinCondition::Band { beta: 1 })
    }

    #[test]
    fn output_count_matches_nested_loop() {
        let m = fig1();
        let mut brute = 0u64;
        for i in 0..m.n1() {
            for j in 0..m.n2() {
                if m.is_one(i, j) {
                    brute += 1;
                }
            }
        }
        assert_eq!(m.output_count(), brute);
        assert!(brute > 0);
    }

    #[test]
    fn region_counts_match_nested_loop() {
        let m = fig1();
        let region = Region::new(KeyRange::new(5, 15), KeyRange::new(3, 11));
        let (input, output) = m.region_counts(&region);
        let rows = m
            .r1_keys()
            .iter()
            .filter(|&&k| (5..=15).contains(&k))
            .count() as u64;
        let cols = m
            .r2_keys()
            .iter()
            .filter(|&&k| (3..=11).contains(&k))
            .count() as u64;
        assert_eq!(input, rows + cols);
        let mut brute = 0u64;
        for &a in m.r1_keys().iter().filter(|&&k| (5..=15).contains(&k)) {
            for &b in m.r2_keys().iter().filter(|&&k| (3..=11).contains(&k)) {
                if m.cond().matches(a, b) {
                    brute += 1;
                }
            }
        }
        assert_eq!(output, brute);
    }

    #[test]
    fn band_grid_is_monotonic() {
        let m = fig1();
        let ranges: Vec<KeyRange> = (0..7).map(|i| KeyRange::new(i * 4, i * 4 + 3)).collect();
        assert!(m.grid_is_monotonic(&ranges, &ranges));
    }

    #[test]
    fn empty_region_has_zero_counts() {
        let m = fig1();
        let region = Region::new(KeyRange::empty(), KeyRange::new(0, 100));
        let (input, output) = m.region_counts(&region);
        let cols = m.n2() as u64;
        assert_eq!(input, cols); // only the column side contributes
        assert_eq!(output, 0);
    }
}
