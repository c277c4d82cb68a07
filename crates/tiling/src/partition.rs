//! Regionalization: a search over the maximum region weight δ.
//!
//! BSP-style tiling solves the dual problem — given δ, minimize the number of
//! regions. The histogram needs the primal: given `J` machines, minimize the
//! maximum region weight. §III-C of the paper bridges the two with a binary
//! search over δ; the region count is non-increasing in δ, so the smallest
//! feasible δ is well-defined.
//!
//! The search here spends its probes near the answer: it probes the floor
//! `covered / J` first, lets the regions that probe is charged predict the
//! answer, gallops up from the prediction until a probe fits and bisects
//! inside — never more than plain bisection's probes plus two. A probe
//! counts regions and nothing else, skipping every MONOTONICBSP rectangle
//! whose count the two ends of the bracket already pin (`Bracket`); the
//! tiling is read off once, at the answer.
//!
//! One rule covers what no tiling can split: a single candidate cell heavier
//! than δ never makes δ infeasible, it is *charged* `⌈w/δ⌉` of the region
//! budget ([`region_shares`]). The caller gives such a region that many
//! machines (the histogram lays a 1-Bucket block over it), so one heavy
//! hitter costs its fair share of `J` instead of setting δ for everyone.

use crate::monotonic_bsp::Bracket;
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

/// Does a tiling charged `charged` regions ([`region_shares`], summed)
/// fit `j` machines? The overflow sentinel never does.
pub(crate) fn fits(charged: u32, j: usize) -> bool {
    charged < INFEASIBLE && charged as u64 <= j as u64
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
    /// Tiling probes the δ search ran, at most `⌈log₂(candidates)⌉ + 2` for
    /// its candidate δ values.
    pub probes: u32,
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
/// regions (§III-C), together with the tiling itself.
///
/// A solver compares δ with rectangle weights and, for a single cell over δ,
/// with `⌈w/k⌉`, and nothing else, so the search runs over the sorted
/// distinct values of both kinds above the lower bound rather than over
/// every integer. It probes the lower bound first; the regions that probe is
/// charged predict the answer, and the search gallops up from the
/// prediction until a probe fits, then bisects — never more than
/// `⌈log₂(candidates)⌉ + 2` probes, plain bisection's count plus two. A
/// probe counts regions only; the tiling is read off once, at the answer.
/// At `threads >= 2` MONOTONICBSP's split table is filled on two threads;
/// the result does not depend on `threads`.
///
/// `j >= 1`. Returns an empty partition when the grid has no candidate cells.
pub fn partition_max_weight(grid: &Grid, j: usize, algo: TilingAlgo, threads: usize) -> Partition {
    assert!(j >= 1, "need at least one region");
    let full = grid.full();
    if grid.cand_count(full) == 0 {
        return Partition {
            regions: Vec::new(),
            shares: Vec::new(),
            delta: 0,
            max_weight: 0,
            probes: 0,
        };
    }

    enum Solver<'a> {
        Dense(BspSolver<'a>),
        Monotonic(MonotonicBspSolver),
    }
    let solver = match algo {
        TilingAlgo::Bsp => Solver::Dense(BspSolver::new(grid)),
        TilingAlgo::MonotonicBsp => Solver::Monotonic(MonotonicBspSolver::new(grid, threads)),
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

    let (at, probes, best) = match &solver {
        Solver::Dense(s) => {
            let charged = |delta: u64| -> u32 {
                s.solve(delta).map_or(INFEASIBLE, |regions| {
                    let shares = regions
                        .iter()
                        .map(|r| region_shares(grid.weight(*r), delta));
                    shares.fold(0u32, u32::saturating_add).min(INFEASIBLE)
                })
            };
            let (at, probes) = search(&deltas, j, charged);
            let best = s
                .solve(deltas[at])
                .expect("the search ends on a feasible delta");
            (at, probes, best)
        }
        Solver::Monotonic(s) => {
            let mut bracket = Bracket::new(s, j);
            let (at, probes) = search(&deltas, j, |delta| bracket.probe(delta));
            (at, probes, bracket.regions(deltas[at]))
        }
    };

    let delta = deltas[at];
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
        probes,
    }
}

/// The smallest index of `deltas` at which `charged(δ)` — the regions the
/// tiling at δ is charged, non-increasing in δ — fits `j`; the last index
/// always does and is not probed. Also returns the probes made.
///
/// The first probe is at the floor, `deltas[0]`. Until a probe fits, the
/// search gallops: a probe at δ charged `c` predicts the answer at
/// `δ · (c + 1) / j` — `c` regions of weight δ spread over `j`, plus one
/// region's margin, since undershooting costs more than overshooting — and
/// the next probe goes there. Once a probe fits it bisects. Every probe stays
/// where bisection's worst case on what it leaves, added to the probes made,
/// keeps within `⌈log₂ n⌉ + 2`; a midpoint always does.
fn search(deltas: &[u64], j: usize, mut charged: impl FnMut(u64) -> u32) -> (usize, u32) {
    let ceil_log2 = |n: usize| n.next_power_of_two().trailing_zeros();
    let budget = ceil_log2(deltas.len()) + 2;
    let top = deltas.len() - 1;
    // The answer lies in `lo..=hi`, and `hi` fits.
    let (mut lo, mut hi) = (0, top);
    let (mut probes, mut at) = (0, 0);
    while lo < hi {
        let c = charged(deltas[at]);
        probes += 1;
        if fits(c, j) {
            hi = at;
        } else {
            lo = at + 1;
        }
        at = lo + (hi - lo) / 2;
        if lo < hi && hi == top {
            // After the next probe, bisection may take `budget - probes - 1`
            // more: each side of it holds at most `room` candidates.
            let room = 1usize << (budget - probes - 1);
            let guess = deltas[lo - 1] as u128 * (c as u128 + 1) / j as u128;
            at = deltas
                .partition_point(|&d| (d as u128) < guess)
                .clamp(hi.saturating_sub(room).max(lo), (lo + room - 1).min(hi - 1));
        }
    }
    (hi, probes)
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
        let p1 = partition_max_weight(&g, 1, TilingAlgo::MonotonicBsp, 1);
        let p4 = partition_max_weight(&g, 4, TilingAlgo::MonotonicBsp, 1);
        let p8 = partition_max_weight(&g, 8, TilingAlgo::MonotonicBsp, 1);
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
            let a = partition_max_weight(&g, j, TilingAlgo::Bsp, 1);
            let b = partition_max_weight(&g, j, TilingAlgo::MonotonicBsp, 1);
            assert_eq!(a.delta, b.delta, "j={j}");
        }
    }

    #[test]
    fn no_candidates_short_circuits() {
        let g = Grid::new(&[1; 3], &[1; 3], &[0; 9], &[false; 9]);
        let p = partition_max_weight(&g, 4, TilingAlgo::MonotonicBsp, 1);
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
