//! Regionalization driver: binary search over the maximum region weight δ.
//!
//! BSP-style tiling solves the dual problem — given δ, minimize the number of
//! regions. The histogram needs the primal: given `J` machines, minimize the
//! maximum region weight. §III-C of the paper bridges the two with a binary
//! search over δ; the region count is non-increasing in δ, so the smallest
//! feasible δ is well-defined.
//!
//! One rule covers what no tiling can split: a single candidate cell heavier
//! than δ never makes δ infeasible, it is *charged* `⌈w/δ⌉` of the region
//! budget ([`region_shares`]). The caller gives such a region that many
//! machines (the histogram lays a 1-Bucket block over it), so one heavy
//! hitter costs its fair share of `J` instead of setting δ for everyone.

use crate::{BspSolver, Grid, MonotonicBspSolver, Rect, INFEASIBLE};

/// Which tiling algorithm regionalization runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TilingAlgo {
    /// Baseline dense DP (`O(nc⁵)` time, `O(nc⁴)` space). Accuracy baseline;
    /// use only on small grids.
    Bsp,
    /// The paper's MONOTONICBSP (`O(ncc²·nc)` time a probe, `O(ncc²)` states).
    MonotonicBsp,
}

/// Regions of the budget a rectangle of weight `weight` is charged at δ:
/// one when it fits, `⌈weight/δ⌉` when it does not (only a single cell is
/// ever kept over δ). Saturates at the solvers' overflow sentinel, which is
/// also what no number of weightless regions can pay: δ = 0.
pub fn region_shares(weight: u64, delta: u64) -> u32 {
    match delta {
        _ if weight <= delta => 1,
        0 => INFEASIBLE,
        _ => weight.div_ceil(delta).min(INFEASIBLE as u64) as u32,
    }
}

/// The result of regionalization: rectangular regions covering every
/// candidate cell exactly once, charged at most `j` shares in total, with
/// `max_weight` = max weight per share.
#[derive(Clone, Debug)]
pub struct Partition {
    pub regions: Vec<Rect>,
    /// [`region_shares`] of each region at `delta`, parallel to `regions`:
    /// 1, or more for a single cell heavier than `delta`.
    pub shares: Vec<u32>,
    /// The δ found by the binary search (≥ `max_weight`).
    pub delta: u64,
    /// The realized maximum of `⌈weight / shares⌉` over the regions.
    pub max_weight: u64,
}

/// Ways a partition can violate the problem definition of §II.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// Two regions overlap.
    Overlap(Rect, Rect),
    /// A candidate cell is covered by no region.
    UncoveredCandidate { row: u32, col: u32 },
    /// A region that a split could still shrink exceeds the weight bound it
    /// was built for.
    Overweight { rect: Rect, weight: u64, delta: u64 },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::Overlap(a, b) => write!(f, "regions overlap: {a:?} and {b:?}"),
            PartitionError::UncoveredCandidate { row, col } => {
                write!(f, "candidate cell ({row}, {col}) is uncovered")
            }
            PartitionError::Overweight {
                rect,
                weight,
                delta,
            } => {
                write!(f, "region {rect:?} weighs {weight} > delta {delta}")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// Checks the §II problem definition: regions are pairwise disjoint, every
/// candidate cell is covered by exactly one region (0-cells by at most one,
/// which disjointness implies), and no region exceeds `delta` unless it is
/// one candidate cell. Returns the shares the regions are charged at
/// `delta` ([`region_shares`], summed) — what must fit the machine budget.
pub fn validate_partition(
    grid: &Grid,
    regions: &[Rect],
    delta: u64,
) -> Result<u32, PartitionError> {
    for (i, a) in regions.iter().enumerate() {
        for b in &regions[i + 1..] {
            if a.intersects(b) {
                return Err(PartitionError::Overlap(*a, *b));
            }
        }
    }
    let mut shares = 0u32;
    for r in regions {
        let w = grid.weight(*r);
        if w > delta && !(r.area() == 1 && grid.is_candidate(r.r0, r.c0)) {
            return Err(PartitionError::Overweight {
                rect: *r,
                weight: w,
                delta,
            });
        }
        shares = shares.saturating_add(region_shares(w, delta));
    }
    let covered: u32 = regions.iter().map(|r| grid.cand_count(*r)).sum();
    if covered != grid.cand_count(grid.full()) {
        // Disjointness holds, so a count mismatch means something is missing;
        // locate one uncovered candidate for the error message.
        for (row, col) in grid.candidate_cells() {
            if !regions.iter().any(|r| r.contains(row, col)) {
                return Err(PartitionError::UncoveredCandidate { row, col });
            }
        }
    }
    Ok(shares)
}

/// Regionalization: the smallest δ whose tiling is charged at most `j`
/// regions, found by binary search (§III-C), together with the tiling itself.
///
/// A solver compares δ with rectangle weights and, for a single cell over δ,
/// with `⌈w/k⌉`, and nothing else, so the search bisects over the sorted
/// distinct values of both kinds above the lower bound — `log₂(states)`
/// probes — rather than over every integer.
///
/// `j >= 1`. Returns an empty partition when the grid has no candidate cells.
pub fn partition_max_weight(grid: &Grid, j: usize, algo: TilingAlgo) -> Partition {
    assert!(j >= 1, "need at least one region");
    let full = grid.full();
    if grid.cand_count(full) == 0 {
        return Partition {
            regions: Vec::new(),
            shares: Vec::new(),
            delta: 0,
            max_weight: 0,
        };
    }

    enum Solver<'a> {
        Dense(BspSolver<'a>),
        Monotonic(MonotonicBspSolver<'a>),
    }
    let solver = match algo {
        TilingAlgo::Bsp => Solver::Dense(BspSolver::new(grid)),
        TilingAlgo::MonotonicBsp => Solver::Monotonic(MonotonicBspSolver::new(grid)),
    };
    let solve = |delta: u64| -> Option<Vec<Rect>> {
        match &solver {
            Solver::Dense(s) => s.solve(delta),
            Solver::Monotonic(s) => s.solve(delta),
        }
    };

    // δ below the per-region share of the weight any partition must cover is
    // never feasible; the heaviest rectangle covers every candidate, so the
    // last δ always is. Between the two, the charge changes where a
    // rectangle starts to fit (its weight) and where a heavy cell needs one
    // share fewer (`⌈w/k⌉`).
    let floor = grid.covered_weight() / j as u64;
    let mut deltas = match &solver {
        Solver::Dense(s) => s.rect_weights(),
        Solver::Monotonic(s) => s.rect_weights().to_vec(),
    };
    for (row, col) in grid.candidate_cells() {
        let w = grid.weight(Rect::new(row, col, row, col));
        deltas.extend(
            (2..=j as u64)
                .map(|k| w.div_ceil(k))
                .take_while(|&d| d > floor),
        );
    }
    deltas.retain(|&w| w > floor);
    deltas.push(floor);
    deltas.sort_unstable();
    deltas.dedup();

    let charged = |regions: &[Rect], delta: u64| -> u64 {
        regions
            .iter()
            .map(|r| region_shares(grid.weight(*r), delta) as u64)
            .sum()
    };
    let feasible = |regions: &Option<Vec<Rect>>, delta: u64| {
        regions
            .as_ref()
            .is_some_and(|r| charged(r, delta) <= j as u64)
    };

    let (mut lo, mut hi) = (0, deltas.len() - 1);
    let mut best = solve(deltas[hi]).expect("the heaviest rectangle's weight is always feasible");
    debug_assert_eq!(best.len(), 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let sol = solve(deltas[mid]);
        if feasible(&sol, deltas[mid]) {
            best = sol.unwrap();
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }

    let delta = deltas[hi];
    let shares: Vec<u32> = best
        .iter()
        .map(|r| region_shares(grid.weight(*r), delta))
        .collect();
    let max_weight = best
        .iter()
        .zip(&shares)
        .map(|(r, &k)| grid.weight(*r).div_ceil(k as u64))
        .max()
        .unwrap_or(0);
    Partition {
        regions: best,
        shares,
        delta,
        max_weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        Grid::new(&vec![4u64; n], &vec![4u64; n], &out, &cand)
    }

    #[test]
    fn binary_search_uses_all_machines_profitably() {
        let g = band_grid(16, 1);
        let p1 = partition_max_weight(&g, 1, TilingAlgo::MonotonicBsp);
        let p4 = partition_max_weight(&g, 4, TilingAlgo::MonotonicBsp);
        let p8 = partition_max_weight(&g, 8, TilingAlgo::MonotonicBsp);
        assert!(p1.max_weight >= p4.max_weight);
        assert!(p4.max_weight >= p8.max_weight);
        assert!(p4.regions.len() <= 4);
        assert!(p8.regions.len() <= 8);
        for p in [&p1, &p4, &p8] {
            validate_partition(&g, &p.regions, p.delta).unwrap();
        }
    }

    #[test]
    fn dense_and_monotonic_agree_on_delta() {
        // Same minimal region counts (tested in monotonic_bsp) imply the
        // binary searches land on the same δ.
        let g = band_grid(8, 1);
        for j in 1..=6 {
            let a = partition_max_weight(&g, j, TilingAlgo::Bsp);
            let b = partition_max_weight(&g, j, TilingAlgo::MonotonicBsp);
            assert_eq!(a.delta, b.delta, "j={j}");
        }
    }

    #[test]
    fn no_candidates_short_circuits() {
        let g = Grid::new(&[1; 3], &[1; 3], &[0; 9], &[false; 9]);
        let p = partition_max_weight(&g, 4, TilingAlgo::MonotonicBsp);
        assert!(p.regions.is_empty());
        assert_eq!(p.max_weight, 0);
    }

    #[test]
    fn validate_detects_overlap_and_gap() {
        let g = band_grid(4, 0);
        let overlapping = vec![Rect::new(0, 0, 2, 2), Rect::new(2, 2, 3, 3)];
        assert!(matches!(
            validate_partition(&g, &overlapping, u64::MAX),
            Err(PartitionError::Overlap(..))
        ));
        let gappy = vec![Rect::new(0, 0, 1, 1)];
        assert!(matches!(
            validate_partition(&g, &gappy, u64::MAX),
            Err(PartitionError::UncoveredCandidate { .. })
        ));
    }

    #[test]
    fn validate_detects_overweight() {
        let g = band_grid(4, 0);
        let all = vec![g.full()];
        assert!(matches!(
            validate_partition(&g, &all, 1),
            Err(PartitionError::Overweight { .. })
        ));
    }
}
