//! MONOTONICBSP — the paper's novel tiling algorithm (Algorithm 2).
//!
//! For monotonic joins the candidate cells of the (coarsened) join matrix
//! form a staircase: each row's candidates occupy one contiguous column
//! interval whose endpoints are non-decreasing from row to row. Lemma 3.4
//! shows that both defining corners of any *minimal candidate rectangle* are
//! then candidate cells, so at most `ncc²` rectangles (ncc = number of
//! candidate cells) can ever arise in the BSP recursion — against `O(nc⁴)`
//! arbitrary rectangles for the baseline.
//!
//! The solver:
//! 1. enumerates all rectangles whose UL and LR corners are candidate cells
//!    (`GENERATECANDIDATERECTANGLES`), closing the set under split+shrink so
//!    non-staircase grids remain correct (for staircases the closure adds
//!    nothing — asserted by tests);
//! 2. sorts them by semi-perimeter (split parts always come strictly
//!    earlier) and **precomputes**, once, each rectangle's weight and the
//!    shrunken halves of every splitter;
//! 3. per δ probe of the regionalization binary search, runs a pure
//!    array-DP pass over the sorted rectangles — no hashing, no geometry.
//!
//! Space is `O(ncc² · nc)` for the split tables, and so is the time of both
//! the constructor and each `solve(δ)`: a rectangle of `h × w` cells gets
//! the shrunken halves of all its `h + w − 2` splitters from two passes of
//! prefix/suffix bounding boxes over per-row and per-column next/previous-
//! candidate tables — `O(1)` a splitter on any grid, where the paper shrinks
//! each half in `O(log nc)` — and a probe touches every splitter once.
//! Regionalization bisects over the distinct rectangle weights, the only
//! places feasibility can change: `log₂(states)` probes.

use std::collections::HashMap;

use crate::{region_shares, Grid, Rect, INFEASIBLE};

/// "No candidate cells in this half" marker in the split tables; also "no
/// such cell / rectangle" in the constructor's lookup tables.
const EMPTY: u32 = u32::MAX;

/// The bounding box of the candidate cells met so far while sweeping the
/// lines (rows or columns) of a rectangle: the lines it spans and the
/// positions it spans within them.
#[derive(Clone, Copy)]
struct BBox {
    first: u32,
    last: u32,
    lo: u32,
    hi: u32,
}

impl BBox {
    const NONE: BBox = BBox {
        first: EMPTY,
        last: 0,
        lo: EMPTY,
        hi: 0,
    };

    /// Grows by one line's candidate span (`lo > hi`: the line has none).
    fn with(self, line: u32, (lo, hi): (u32, u32)) -> BBox {
        if lo > hi {
            return self;
        }
        BBox {
            first: self.first.min(line),
            last: self.last.max(line),
            lo: self.lo.min(lo),
            hi: self.hi.max(hi),
        }
    }

    /// The rectangle whose lines run along `first..=last`, if any.
    fn rect(self, to_rect: impl Fn(BBox) -> Rect) -> Option<Rect> {
        (self.first != EMPTY).then(|| to_rect(self))
    }
}

/// Next/previous-candidate tables along every line of one orientation of
/// the grid (its rows, or its columns).
struct Lines {
    len: usize,
    /// `next[line · len + p]`: the first candidate position `>= p`, or `EMPTY`.
    next: Vec<u32>,
    /// `prev[line · len + p]`: the last candidate position `<= p` (0 if none;
    /// only read together with `next`, which tells).
    prev: Vec<u32>,
}

impl Lines {
    fn new(n_lines: u32, len: u32, is_candidate: impl Fn(u32, u32) -> bool) -> Self {
        let mut next = vec![EMPTY; n_lines as usize * len as usize];
        let mut prev = vec![0; next.len()];
        for line in 0..n_lines {
            let at = line as usize * len as usize;
            let mut seen = 0;
            for p in 0..len {
                if is_candidate(line, p) {
                    seen = p;
                }
                prev[at + p as usize] = seen;
            }
            let mut seen = EMPTY;
            for p in (0..len).rev() {
                if is_candidate(line, p) {
                    seen = p;
                }
                next[at + p as usize] = seen;
            }
        }
        Lines {
            len: len as usize,
            next,
            prev,
        }
    }

    /// Candidate span of `line` within positions `p0..=p1` (`lo > hi`: none).
    #[inline]
    fn span(&self, line: u32, p0: u32, p1: u32) -> (u32, u32) {
        let at = line as usize * self.len;
        (self.next[at + p0 as usize], self.prev[at + p1 as usize])
    }

    /// Every split of the lines `l0..=l1`, restricted to positions
    /// `p0..=p1`, after line `k = l0, …, l1 − 1`: the bounding boxes of the
    /// candidates in lines `l0..=k` and in lines `k+1..=l1`. One backward
    /// pass fills `suffix` (scratch), one forward pass emits.
    fn splits(
        &self,
        (l0, l1): (u32, u32),
        (p0, p1): (u32, u32),
        suffix: &mut Vec<BBox>,
        mut emit: impl FnMut(BBox, BBox),
    ) {
        suffix.clear();
        suffix.resize((l1 - l0) as usize, BBox::NONE);
        let mut after = BBox::NONE;
        for k in (l0..l1).rev() {
            after = after.with(k + 1, self.span(k + 1, p0, p1));
            suffix[(k - l0) as usize] = after;
        }
        let mut upto = BBox::NONE;
        for k in l0..l1 {
            upto = upto.with(k, self.span(k, p0, p1));
            emit(upto, suffix[(k - l0) as usize]);
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Plan {
    Leaf,
    /// Index into the split-pair table.
    Split(u32),
}

/// Reusable MONOTONICBSP solver: enumeration, sorting and split tables are
/// δ-independent, so the regionalization binary search pays them once.
pub struct MonotonicBspSolver<'a> {
    grid: &'a Grid,
    /// All reachable minimal candidate rectangles, sorted by ascending
    /// semi-perimeter (ties by packed key for determinism).
    rects: Vec<Rect>,
    /// Rectangle weights, aligned with `rects`.
    weights: Vec<u64>,
    /// Per-rect range into `split_pairs`.
    split_start: Vec<u32>,
    /// For every splitter of every rect: the rect indexes of the two
    /// shrunken halves (`EMPTY` when a half has no candidates).
    split_pairs: Vec<(u32, u32)>,
}

impl<'a> MonotonicBspSolver<'a> {
    /// Enumerates candidate-cornered rectangles (Lemma 3.4), closes the set
    /// under split+shrink, and builds the DP tables.
    pub fn new(grid: &'a Grid) -> Self {
        let n_cols = grid.n_cols() as usize;
        let cells = grid.candidate_cells();
        let ncc = cells.len();
        // Candidate-cornered rectangles are interned through a dense
        // `(UL cell, LR cell) → arrival id` table; a rectangle's arrival id
        // is its position in `rects` until the sort.
        let mut cell_rank = vec![EMPTY; grid.n_rows() as usize * n_cols];
        for (rank, &(r, c)) in cells.iter().enumerate() {
            cell_rank[r as usize * n_cols + c as usize] = rank as u32;
        }
        let mut cornered = vec![EMPTY; ncc * ncc];
        let mut rects = Vec::with_capacity(ncc * ncc / 2 + 1);
        for (a, &(r0, c0)) in cells.iter().enumerate() {
            for (b, &(r1, c1)) in cells.iter().enumerate().skip(a) {
                // Cells come in row-major order so r1 >= r0; the staircase
                // orientation means minimal rects also satisfy c1 >= c0.
                if c1 >= c0 {
                    cornered[a * ncc + b] = rects.len() as u32;
                    rects.push(Rect::new(r0, c0, r1, c1));
                }
            }
        }
        // Everything else — the closure's rectangles on non-staircase grids —
        // goes through a hash map.
        let mut others: HashMap<u64, u32> = HashMap::new();
        let mut intern = |rects: &mut Vec<Rect>, r: Rect| -> u32 {
            let ul = cell_rank[r.r0 as usize * n_cols + r.c0 as usize];
            let lr = cell_rank[r.r1 as usize * n_cols + r.c1 as usize];
            if ul != EMPTY && lr != EMPTY {
                return cornered[ul as usize * ncc + lr as usize];
            }
            *others.entry(r.pack()).or_insert_with(|| {
                rects.push(r);
                (rects.len() - 1) as u32
            })
        };
        // Seed with the root: on non-staircase matrices its corners need not
        // be candidate cells, yet the DP always starts there.
        if let Some(root) = grid.shrink(grid.full()) {
            intern(&mut rects, root);
        }
        // One pass records, by arrival id, the shrunken halves of every
        // splitter of every rectangle. A half not in the set yet is appended
        // and processed in turn — the closure, which adds nothing on
        // monotonic matrices.
        let rows = Lines::new(grid.n_rows(), grid.n_cols(), |r, c| grid.is_candidate(r, c));
        let cols = Lines::new(grid.n_cols(), grid.n_rows(), |c, r| grid.is_candidate(r, c));
        let mut suffix = Vec::new();
        let mut arrival_start = Vec::with_capacity(rects.len() + 1);
        let mut arrival_pairs = Vec::new();
        arrival_start.push(0usize);
        let mut i = 0;
        while i < rects.len() {
            let rm = rects[i];
            i += 1;
            let mut half_id = |half: Option<Rect>| match half {
                None => EMPTY,
                Some(half) => intern(&mut rects, half),
            };
            let by_rows = |b: BBox| Rect::new(b.first, b.lo, b.last, b.hi);
            rows.splits((rm.r0, rm.r1), (rm.c0, rm.c1), &mut suffix, |a, b| {
                arrival_pairs.push((half_id(a.rect(by_rows)), half_id(b.rect(by_rows))));
            });
            let by_cols = |b: BBox| Rect::new(b.lo, b.first, b.hi, b.last);
            cols.splits((rm.c0, rm.c1), (rm.r0, rm.r1), &mut suffix, |a, b| {
                arrival_pairs.push((half_id(a.rect(by_cols)), half_id(b.rect(by_cols))));
            });
            arrival_start.push(arrival_pairs.len());
        }

        // Sort, then resolve arrival ids to sorted positions.
        let mut order: Vec<u32> = (0..rects.len() as u32).collect();
        order.sort_unstable_by_key(|&id| {
            let r = rects[id as usize];
            (r.semi_perimeter(), r.pack())
        });
        let mut position = vec![0u32; rects.len()];
        for (pos, &id) in order.iter().enumerate() {
            position[id as usize] = pos as u32;
        }
        let resolve = |id: u32| match id {
            EMPTY => EMPTY,
            id => position[id as usize],
        };
        let mut split_start = Vec::with_capacity(rects.len() + 1);
        let mut split_pairs = Vec::with_capacity(arrival_pairs.len());
        split_start.push(0u32);
        for &id in &order {
            let splits = arrival_start[id as usize]..arrival_start[id as usize + 1];
            split_pairs.extend(
                arrival_pairs[splits]
                    .iter()
                    .map(|&(a, b)| (resolve(a), resolve(b))),
            );
            split_start.push(split_pairs.len() as u32);
        }
        let rects: Vec<Rect> = order.iter().map(|&id| rects[id as usize]).collect();
        let weights: Vec<u64> = rects.iter().map(|&r| grid.weight(r)).collect();

        MonotonicBspSolver {
            grid,
            rects,
            weights,
            split_start,
            split_pairs,
        }
    }

    /// Number of enumerated rectangles (`O(ncc²)`), for the space-complexity
    /// comparison of Table III.
    pub fn state_count(&self) -> usize {
        self.rects.len()
    }

    /// Weight of every enumerated rectangle: the values of δ at which
    /// `solve(δ)` can change.
    pub(crate) fn rect_weights(&self) -> &[u64] {
        &self.weights
    }

    /// The DP tables — rectangles, their weights, each rectangle's range
    /// into the split pairs, the split pairs — for the test that compares
    /// them with the shrink-every-half formulation.
    #[doc(hidden)]
    #[allow(clippy::type_complexity)]
    pub fn tables(&self) -> (&[Rect], &[u64], &[u32], &[(u32, u32)]) {
        (
            &self.rects,
            &self.weights,
            &self.split_start,
            &self.split_pairs,
        )
    }

    /// Solves for a given δ: regions covering every candidate cell exactly
    /// once, minimizing the regions *charged* ([`region_shares`]): a region
    /// weighs at most δ and is charged one, except a single cell heavier
    /// than δ — nothing can split it, so it never fails the test and is
    /// charged `⌈w/δ⌉`. `None` only when the charge overflows.
    pub fn solve(&self, delta: u64) -> Option<Vec<Rect>> {
        let Some(root) = self.grid.shrink(self.grid.full()) else {
            return Some(Vec::new()); // no candidate cells at all
        };

        let n = self.rects.len();
        let mut count = vec![0u32; n];
        let mut plan = vec![Plan::Leaf; n];
        for i in 0..n {
            let range = self.split_start[i]..self.split_start[i + 1];
            if self.weights[i] <= delta || range.is_empty() {
                count[i] = region_shares(self.weights[i], delta);
                continue;
            }
            let mut best = INFEASIBLE;
            let mut best_split = 0u32;
            for s in range {
                let (a, b) = self.split_pairs[s as usize];
                let ca = if a == EMPTY { 0 } else { count[a as usize] };
                let cb = if b == EMPTY { 0 } else { count[b as usize] };
                let c = ca.saturating_add(cb);
                if c < best {
                    best = c;
                    best_split = s;
                }
            }
            count[i] = best.min(INFEASIBLE);
            plan[i] = Plan::Split(best_split);
        }

        let root_idx = self
            .rects
            .binary_search_by_key(&(root.semi_perimeter(), root.pack()), |r| {
                (r.semi_perimeter(), r.pack())
            })
            .expect("root is a minimal candidate rectangle");
        if count[root_idx] >= INFEASIBLE {
            return None;
        }
        let mut regions = Vec::with_capacity(count[root_idx] as usize);
        self.extract(root_idx, &plan, &mut regions);
        Some(regions)
    }

    fn extract(&self, idx: usize, plan: &[Plan], out: &mut Vec<Rect>) {
        match plan[idx] {
            Plan::Leaf => out.push(self.rects[idx]),
            Plan::Split(s) => {
                let (a, b) = self.split_pairs[s as usize];
                if a != EMPTY {
                    self.extract(a as usize, plan, out);
                }
                if b != EMPTY {
                    self.extract(b as usize, plan, out);
                }
            }
        }
    }
}

/// One-shot MONOTONICBSP at a fixed δ.
pub fn monotonic_bsp(grid: &Grid, delta: u64) -> Option<Vec<Rect>> {
    MonotonicBspSolver::new(grid).solve(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bsp, validate_partition};

    fn band_grid(n: usize, half_width: i64, heavy: Option<(usize, usize, u64)>) -> Grid {
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
        if let Some((i, j, w)) = heavy {
            assert!(cand[i * n + j]);
            out[i * n + j] = w;
        }
        Grid::new(&vec![1u64; n], &vec![1u64; n], &out, &cand)
    }

    #[test]
    fn matches_baseline_bsp_region_counts() {
        // The paper's claim: MONOTONICBSP gives the same accuracy as BSP on
        // monotonic matrices. Hierarchical optima may differ in shape but the
        // minimal region count must agree.
        for n in [4usize, 6, 8] {
            for hw in [0i64, 1, 2] {
                let g = band_grid(n, hw, None);
                for delta in [3u64, 5, 9, 17, 33] {
                    let a = bsp(&g, delta).map(|r| r.len());
                    let b = monotonic_bsp(&g, delta).map(|r| r.len());
                    assert_eq!(a, b, "n={n} hw={hw} delta={delta}");
                }
            }
        }
    }

    #[test]
    fn closure_adds_nothing_on_staircase_grids() {
        // For a monotonic matrix, every reachable rectangle already has
        // candidate corners: the enumeration is exactly the pairs set.
        let g = band_grid(10, 1, None);
        let ncc = g.candidate_cells().len();
        let solver = MonotonicBspSolver::new(&g);
        let pairs = g
            .candidate_cells()
            .iter()
            .enumerate()
            .map(|(a, &(r0, c0))| {
                g.candidate_cells()[a..]
                    .iter()
                    .filter(|&&(_, c1)| c1 >= c0)
                    .filter(|&&(r1, _)| r1 >= r0)
                    .count()
            })
            .sum::<usize>();
        assert!(ncc > 0);
        assert_eq!(solver.state_count(), pairs);
    }

    #[test]
    fn handles_non_monotonic_grids_via_closure() {
        // An anti-diagonal plus main-diagonal pattern breaks the staircase;
        // the closure must keep the DP correct (validated partitions).
        let n = 6usize;
        let mut out = vec![0u64; n * n];
        let mut cand = vec![false; n * n];
        for i in 0..n {
            out[i * n + i] = 2;
            cand[i * n + i] = true;
            out[i * n + (n - 1 - i)] = 2;
            cand[i * n + (n - 1 - i)] = true;
        }
        let g = Grid::new(&vec![1u64; n], &vec![1u64; n], &out, &cand);
        for delta in [4u64, 8, 16, 64] {
            if let Some(regions) = monotonic_bsp(&g, delta) {
                validate_partition(&g, &regions, delta).unwrap();
            }
        }
    }

    #[test]
    fn partitions_are_valid() {
        let g = band_grid(12, 2, Some((5, 5, 40)));
        for delta in [44u64, 60, 100, 400] {
            let regions = monotonic_bsp(&g, delta).unwrap();
            validate_partition(&g, &regions, delta).unwrap();
        }
    }

    #[test]
    fn heavy_cell_below_delta_is_infeasible() {
        let g = band_grid(8, 1, Some((3, 3, 100)));
        // Cell (3,3) weighs 1 + 1 + 100 = 102. At δ = 102 it is one region
        // like any other. Below, it is still one region — nothing splits a
        // cell — but charged ⌈102/δ⌉ of the budget: δ = 101 is infeasible
        // for the budget that δ = 102 fits exactly, not for every budget.
        let hot = Rect::new(3, 3, 3, 3);
        let at = monotonic_bsp(&g, 102).unwrap();
        let budget = validate_partition(&g, &at, 102).unwrap();
        assert_eq!(budget, at.len() as u32);
        for (delta, shares) in [(101u64, 2u32), (51, 2), (50, 3), (10, 11)] {
            let regions = monotonic_bsp(&g, delta).unwrap();
            assert!(regions.contains(&hot), "delta {delta}");
            let over: Vec<_> = regions.iter().filter(|r| g.weight(**r) > delta).collect();
            assert_eq!(over, [&hot], "delta {delta}");
            let charged = validate_partition(&g, &regions, delta).unwrap();
            assert_eq!(charged, regions.len() as u32 - 1 + shares, "delta {delta}");
            assert!(charged > budget, "delta {delta}");
        }
        assert!(monotonic_bsp(&g, 0).is_none());
    }

    #[test]
    fn no_candidates_is_trivially_covered() {
        let g = Grid::new(&[5, 5], &[5, 5], &[0; 4], &[false; 4]);
        assert_eq!(monotonic_bsp(&g, 0).unwrap(), vec![]);
    }

    #[test]
    fn skewed_outputs_drive_uneven_region_shapes() {
        // A heavy diagonal head: the tiling should isolate the hot corner in
        // small regions and merge the cold tail.
        let n = 10usize;
        let mut out = vec![0u64; n * n];
        let mut cand = vec![false; n * n];
        for i in 0..n {
            out[i * n + i] = if i < 2 { 100 } else { 1 };
            cand[i * n + i] = true;
        }
        let g = Grid::new(&vec![1u64; n], &vec![1u64; n], &out, &cand);
        let regions = monotonic_bsp(&g, 104).unwrap();
        validate_partition(&g, &regions, 104).unwrap();
        // The two hot cells cannot share a region (2*100 + input > 104).
        let hot0 = regions.iter().find(|r| r.contains(0, 0)).unwrap();
        let hot1 = regions.iter().find(|r| r.contains(1, 1)).unwrap();
        assert_ne!(hot0, hot1);
    }

    #[test]
    fn state_count_is_quadratic_in_candidates() {
        let g = band_grid(16, 0, None); // 16 diagonal candidates
        let solver = MonotonicBspSolver::new(&g);
        // Pairs (a, b) with a <= b over 16 cells: 16*17/2 = 136.
        assert_eq!(solver.state_count(), 136);
    }
}
