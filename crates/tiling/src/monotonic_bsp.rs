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
//!    (`GENERATECANDIDATERECTANGLES`) and sorts them by semi-perimeter
//!    (split parts always come strictly earlier);
//! 2. in one pass over the sorted rectangles writes, for every splitter, the
//!    sorted positions of its two shrunken halves — found through a dense
//!    `(UL rank, LR rank)` table — into a table sized up front, `h − 1 +
//!    w − 1` entries a rectangle. At two or more threads the pass is cut at
//!    half the splitters and its halves filled side by side. On a
//!    non-staircase grid a half can lack candidate corners: the pass reports
//!    such halves, they join the set, and the pass runs again until it
//!    reports none — the closure under split + shrink, which adds nothing on
//!    staircases (asserted by tests);
//! 3. per δ probe of the regionalization search, runs a pure array-DP pass
//!    over the sorted rectangles that fills charged region counts only — no
//!    hashing, no geometry, no plan. A `Bracket` skips every rectangle
//!    whose count is already pinned by the search's two ends, and the tiling
//!    is read off the counts once, at the answer.
//!
//! Space is `O(ncc² · nc)` for the split tables, and so is the time of both
//! the constructor and each probe: a rectangle of `h × w` cells gets the
//! shrunken halves of all its `h + w − 2` splitters from two passes of
//! prefix/suffix bounding boxes over per-row and per-column next/previous-
//! candidate tables — `O(1)` a splitter on any grid, where the paper shrinks
//! each half in `O(log nc)` — and a probe touches every open splitter once.

use std::collections::HashMap;
use std::thread;

use crate::partition::fits;
use crate::{region_shares, Grid, Rect, INFEASIBLE};

/// "No such cell / rectangle / candidate" in the constructor's lookup tables.
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

/// Writes the sorted positions of both shrunken halves of every splitter of
/// `rects` (`none` for a half without candidates), row splits then column
/// splits, into `pairs`, which holds exactly `h − 1 + w − 1` entries a
/// rectangle. Returns the halves `at` does not place.
fn fill_splits(
    none: u32,
    (rows, cols): (&Lines, &Lines),
    at: &impl Fn(Rect) -> Option<u32>,
    rects: &[Rect],
    pairs: &mut [(u32, u32)],
) -> Vec<Rect> {
    let mut missing = Vec::new();
    let mut position = |half: Option<Rect>| match half {
        None => none,
        Some(half) => at(half).unwrap_or_else(|| {
            missing.push(half);
            none
        }),
    };
    let by_rows = |b: BBox| Rect::new(b.first, b.lo, b.last, b.hi);
    let by_cols = |b: BBox| Rect::new(b.lo, b.first, b.hi, b.last);
    let mut suffix = Vec::new();
    let mut next = 0;
    for &rm in rects {
        rows.splits((rm.r0, rm.r1), (rm.c0, rm.c1), &mut suffix, |a, b| {
            pairs[next] = (position(a.rect(by_rows)), position(b.rect(by_rows)));
            next += 1;
        });
        cols.splits((rm.c0, rm.c1), (rm.r0, rm.r1), &mut suffix, |a, b| {
            pairs[next] = (position(a.rect(by_cols)), position(b.rect(by_cols)));
            next += 1;
        });
    }
    debug_assert_eq!(next, pairs.len());
    missing
}

/// Reusable MONOTONICBSP solver: enumeration, sorting and split tables are
/// δ-independent, so the regionalization search pays them once.
pub struct MonotonicBspSolver {
    /// All reachable minimal candidate rectangles, sorted by ascending
    /// semi-perimeter (ties by packed key for determinism).
    rects: Vec<Rect>,
    /// Rectangle weights, aligned with `rects`.
    weights: Vec<u64>,
    /// Per-rect range into `split_pairs`.
    split_start: Vec<u32>,
    /// For every splitter of every rect: the rect indexes of the two
    /// shrunken halves; `rects.len()` for a half without candidates, whose
    /// count — one slot past every state's — is always zero.
    split_pairs: Vec<(u32, u32)>,
    /// Index of the shrunken whole grid, the DP's root; `None` when the grid
    /// has no candidate cells.
    root: Option<u32>,
}

impl MonotonicBspSolver {
    /// Enumerates candidate-cornered rectangles (Lemma 3.4), closes the set
    /// under split + shrink, and builds the DP tables — at `threads >= 2`
    /// filling the split table on two threads. The tables do not depend on
    /// `threads`.
    pub fn new(grid: &Grid, threads: usize) -> Self {
        let n_cols = grid.n_cols() as usize;
        let cells = grid.candidate_cells();
        let ncc = cells.len();
        let mut cell_rank = vec![EMPTY; grid.n_rows() as usize * n_cols];
        for (rank, &(r, c)) in cells.iter().enumerate() {
            cell_rank[r as usize * n_cols + c as usize] = rank as u32;
        }
        // The `(UL rank, LR rank)` slot of a rectangle whose corners are
        // candidate cells.
        let corners = |r: Rect| {
            let rank = |row: u32, col: u32| cell_rank[row as usize * n_cols + col as usize];
            let (ul, lr) = (rank(r.r0, r.c0), rank(r.r1, r.c1));
            (ul != EMPTY && lr != EMPTY).then(|| ul as usize * ncc + lr as usize)
        };
        let mut rects = Vec::with_capacity(ncc * ncc / 2 + 1);
        for (a, &(r0, c0)) in cells.iter().enumerate() {
            // Cells come in row-major order so r1 >= r0; the staircase
            // orientation means minimal rects also satisfy c1 >= c0.
            for &(r1, c1) in &cells[a..] {
                if c1 >= c0 {
                    rects.push(Rect::new(r0, c0, r1, c1));
                }
            }
        }
        // On non-staircase matrices the root's corners need not be candidate
        // cells, yet the DP always starts there (else it is a duplicate).
        let root = grid.shrink(grid.full());
        rects.extend(root);

        let rows = Lines::new(grid.n_rows(), grid.n_cols(), |r, c| grid.is_candidate(r, c));
        let cols = Lines::new(grid.n_cols(), grid.n_rows(), |c, r| grid.is_candidate(r, c));
        let (root, split_start, split_pairs) = loop {
            rects.sort_unstable_by_key(|r| (r.semi_perimeter(), r.pack()));
            rects.dedup();
            // Sorted positions: a candidate-cornered rectangle's through a
            // dense table, the closure's others' through a hash map.
            let mut cornered = vec![EMPTY; ncc * ncc];
            let mut others = HashMap::new();
            for (pos, &r) in rects.iter().enumerate() {
                match corners(r) {
                    Some(slot) => cornered[slot] = pos as u32,
                    None => {
                        others.insert(r.pack(), pos as u32);
                    }
                }
            }
            let position = |r: Rect| match corners(r) {
                Some(slot) => Some(cornered[slot]),
                None => others.get(&r.pack()).copied(),
            };
            let mut split_start = Vec::with_capacity(rects.len() + 1);
            let mut total = 0u32;
            split_start.push(total);
            for r in &rects {
                total += r.height() + r.width() - 2;
                split_start.push(total);
            }
            let mut split_pairs = vec![(0, 0); total as usize];
            let none = rects.len() as u32;
            let fill = |rects: &[Rect], pairs: &mut [(u32, u32)]| {
                fill_splits(none, (&rows, &cols), &position, rects, pairs)
            };
            let missing = if threads >= 2 {
                let cut = split_start.partition_point(|&s| s < total / 2);
                let (head, tail) = split_pairs.split_at_mut(split_start[cut] as usize);
                thread::scope(|s| {
                    let tail = s.spawn(|| fill(&rects[cut..], tail));
                    let mut missing = fill(&rects[..cut], head);
                    missing.extend(tail.join().expect("split-table worker panicked"));
                    missing
                })
            } else {
                fill(&rects, &mut split_pairs)
            };
            if missing.is_empty() {
                let root = root.map(|r| position(r).expect("the root is in the set"));
                break (root, split_start, split_pairs);
            }
            rects.extend(missing);
        };
        let weights = rects.iter().map(|&r| grid.weight(r)).collect();
        MonotonicBspSolver {
            rects,
            weights,
            split_start,
            split_pairs,
            root,
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
    /// into the split pairs, the split pairs (the rectangle count standing
    /// for a half without candidates) — for the test that compares them
    /// with the shrink-every-half formulation.
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

    fn splits(&self, i: usize) -> &[(u32, u32)] {
        &self.split_pairs[self.split_start[i] as usize..self.split_start[i + 1] as usize]
    }

    /// Fills `count[i]` for every `i` of `open` (ascending) with the regions
    /// rectangle `i` is charged at δ by its best hierarchical tiling; every
    /// other entry must already hold its count at δ, and the one past the
    /// last rectangle zero. Two counts never overflow: each is at most
    /// `INFEASIBLE`, a quarter of `u32::MAX`.
    fn count(&self, delta: u64, open: &[u32], count: &mut [u32]) {
        for &i in open {
            let (i, weight) = (i as usize, self.weights[i as usize]);
            let splits = self.splits(i);
            count[i] = if weight <= delta || splits.is_empty() {
                region_shares(weight, delta)
            } else {
                splits.iter().fold(INFEASIBLE, |best, &(a, b)| {
                    best.min(count[a as usize] + count[b as usize])
                })
            };
        }
    }

    /// The tiling of rectangle `i` at δ, read off the counts at δ: a leaf,
    /// or the first splitter whose halves are charged the least.
    fn extract(&self, i: usize, delta: u64, count: &[u32], out: &mut Vec<Rect>) {
        let splits = self.splits(i);
        if self.weights[i] <= delta || splits.is_empty() {
            out.push(self.rects[i]);
            return;
        }
        let none = self.rects.len() as u32;
        let mut best = (INFEASIBLE, (none, none));
        for &(a, b) in splits {
            let c = count[a as usize] + count[b as usize];
            if c < best.0 {
                best = (c, (a, b));
            }
        }
        let (a, b) = best.1;
        for half in [a, b] {
            if half != none {
                self.extract(half as usize, delta, count, out);
            }
        }
    }

    /// Solves for a given δ: regions covering every candidate cell exactly
    /// once, minimizing the regions *charged* ([`region_shares`]): a region
    /// weighs at most δ and is charged one, except a single cell heavier
    /// than δ — nothing can split it, so it never fails the test and is
    /// charged `⌈w/δ⌉`. `None` only when the charge overflows.
    pub fn solve(&self, delta: u64) -> Option<Vec<Rect>> {
        let Some(root) = self.root else {
            return Some(Vec::new()); // no candidate cells at all
        };
        let mut count = vec![0u32; self.rects.len() + 1];
        let all: Vec<u32> = (0..self.rects.len() as u32).collect();
        self.count(delta, &all, &mut count);
        let root = root as usize;
        (count[root] < INFEASIBLE).then(|| {
            let mut regions = Vec::with_capacity(count[root] as usize);
            self.extract(root, delta, &count, &mut regions);
            regions
        })
    }
}

/// The count-only probes of one δ search on a grid with candidate cells.
///
/// It keeps every rectangle's charged count at the search's feasible end
/// (`hi`) and at its infeasible end (`lo`). A count never grows with δ, so a
/// rectangle whose two counts agree has that count at every δ between them:
/// a probe recomputes only the others (`open`), and narrows them further.
/// A rectangle leaves `open` with its count written into all three buffers,
/// so whichever buffer a probe fills already holds it; each buffer ends in
/// the zero a half without candidates is charged.
pub(crate) struct Bracket<'s> {
    solver: &'s MonotonicBspSolver,
    root: usize,
    j: usize,
    lo: Vec<u32>,
    hi: Vec<u32>,
    probe: Vec<u32>,
    open: Vec<u32>,
}

impl<'s> Bracket<'s> {
    /// A search for at most `j` regions whose feasible end is a δ every
    /// rectangle fits (count one) and whose infeasible end is not known yet.
    pub(crate) fn new(solver: &'s MonotonicBspSolver, j: usize) -> Self {
        let n = solver.rects.len();
        let buffer = |count: u32| (0..=n).map(|i| if i < n { count } else { 0 }).collect();
        Bracket {
            solver,
            root: solver.root.expect("a bracket needs candidate cells") as usize,
            j,
            lo: buffer(u32::MAX), // above every count: agrees with nothing
            hi: buffer(1),
            probe: buffer(0),
            open: (0..n as u32).collect(),
        }
    }

    /// The root's charged count at δ, which must lie strictly inside the
    /// bracket; the bracket's end on that side moves to δ.
    pub(crate) fn probe(&mut self, delta: u64) -> u32 {
        self.solver.count(delta, &self.open, &mut self.probe);
        let root = self.probe[self.root];
        let end = if fits(root, self.j) {
            &mut self.hi
        } else {
            &mut self.lo
        };
        std::mem::swap(end, &mut self.probe);
        let (lo, hi, spare) = (&self.lo, &self.hi, &mut self.probe);
        self.open.retain(|&i| {
            let i = i as usize;
            let agreed = lo[i] == hi[i];
            if agreed {
                spare[i] = lo[i];
            }
            !agreed
        });
        root
    }

    /// The tiling at the bracket's feasible end `delta`.
    pub(crate) fn regions(&self, delta: u64) -> Vec<Rect> {
        let mut regions = Vec::new();
        self.solver
            .extract(self.root, delta, &self.hi, &mut regions);
        regions
    }
}

/// One-shot MONOTONICBSP at a fixed δ.
pub fn monotonic_bsp(grid: &Grid, delta: u64) -> Option<Vec<Rect>> {
    MonotonicBspSolver::new(grid, 1).solve(delta)
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
        let solver = MonotonicBspSolver::new(&g, 1);
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
        let solver = MonotonicBspSolver::new(&g, 1);
        // Pairs (a, b) with a <= b over 16 cells: 16*17/2 = 136.
        assert_eq!(solver.state_count(), 136);
    }
}
