//! Coarsening: grid partitioning of the sample matrix `MS` into `MC`.
//!
//! §III-B of the paper: impose an `nc × nc` grid over the (sparse) sample
//! matrix minimizing the maximum *candidate* cell weight — the RTILE problem
//! with grid partitioning and the MAX-WEIGHT metric (Muthukrishnan & Suel,
//! J. Algorithms 2005, approximation ratio 2). The algorithm iteratively
//! improves the grid: fix the column cuts and re-optimize the row cuts
//! *exactly* (the smallest cell-weight bound φ at which a greedy slab sweep
//! fits), then swap dimensions, until the max cell weight stops improving.
//! A single fine line heavier than φ cannot be cut any further: it becomes a
//! slab of its own rather than making φ infeasible, so one heavy hitter does
//! not set the bound every other slab is packed to (the tiling stage gives
//! such a cell several regions instead, see [`crate::partition_max_weight`]).
//!
//! What a pass costs: its points merged once into one `(slab, weight)` entry
//! per line and other-dimension slab, then a bisection whose bounds jump
//! between weights the sweep actually compared against φ (see
//! `optimize_cuts`), its upper bound starting at what the cuts in hand
//! weigh.
//!
//! *MonotonicCoarsening*: non-candidate cells weigh 0 (they are never
//! assigned to a machine), and for monotonic joins each fine row's candidate
//! columns form one interval with non-decreasing endpoints. The feasibility
//! sweep tracks the accumulated candidate interval and takes the maximum only
//! over candidate coarse cells, skipping non-candidates for free — the
//! paper's practical speedup, with unchanged asymptotics.

/// One sampled output point of the sparse matrix: `w` is its (already
/// cost-scaled) output weight contribution.
#[derive(Clone, Copy, Debug)]
pub struct SparsePoint {
    pub row: u32,
    pub col: u32,
    pub w: u64,
}

/// A sparse weighted matrix: per-line input weights plus sampled output
/// points, with per-row candidate column intervals (inclusive; `lo > hi`
/// means the row has no candidates).
#[derive(Clone, Debug)]
pub struct SparseGrid {
    pub n_rows: u32,
    pub n_cols: u32,
    /// Input weight of each fine row (already multiplied by the cost model's
    /// input factor).
    pub row_w: Vec<u64>,
    pub col_w: Vec<u64>,
    /// Output sample points (already multiplied by the output factor).
    pub points: Vec<SparsePoint>,
    /// Candidate column interval per fine row.
    pub cand: Vec<(u32, u32)>,
}

impl SparseGrid {
    /// Validates dimensions; panics on inconsistency.
    pub fn new(
        n_rows: u32,
        n_cols: u32,
        row_w: Vec<u64>,
        col_w: Vec<u64>,
        points: Vec<SparsePoint>,
        cand: Vec<(u32, u32)>,
    ) -> Self {
        assert_eq!(row_w.len(), n_rows as usize);
        assert_eq!(col_w.len(), n_cols as usize);
        assert_eq!(cand.len(), n_rows as usize);
        for p in &points {
            assert!(p.row < n_rows && p.col < n_cols, "point out of range");
        }
        SparseGrid {
            n_rows,
            n_cols,
            row_w,
            col_w,
            points,
            cand,
        }
    }

    /// Are the candidate intervals a monotone staircase (both endpoints
    /// non-decreasing over non-empty rows)? Holds for every monotonic join.
    pub fn is_staircase(&self) -> bool {
        let mut prev: Option<(u32, u32)> = None;
        for &(lo, hi) in &self.cand {
            if lo > hi {
                continue;
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

    /// Derives per-column candidate row intervals from the per-row intervals.
    /// Exact for staircases; for non-staircase inputs it returns conservative
    /// bounding intervals (safe: extra candidates only make the coarsening
    /// more cautious).
    fn col_cand(&self) -> Vec<(u32, u32)> {
        let mut col_iv = vec![(1u32, 0u32); self.n_cols as usize];
        for (i, &(lo, hi)) in self.cand.iter().enumerate() {
            if lo > hi {
                continue;
            }
            for j in lo..=hi {
                let iv = &mut col_iv[j as usize];
                if iv.0 > iv.1 {
                    *iv = (i as u32, i as u32);
                } else {
                    iv.1 = i as u32;
                }
            }
        }
        col_iv
    }
}

/// Configuration of the coarsening stage.
#[derive(Clone, Copy, Debug)]
pub struct CoarsenConfig {
    /// Number of coarse slabs per dimension (`nc = 2J` per §III-B/§III-D).
    pub nc: usize,
    /// Maximum alternating improvement iterations (each = one row pass + one
    /// column pass). The loop stops early when the max cell weight stalls.
    pub iters: usize,
    /// Enable MonotonicCoarsening (restrict the feasibility maximum to
    /// candidate cells). Disabling treats every cell as a candidate.
    pub monotonic: bool,
}

impl Default for CoarsenConfig {
    fn default() -> Self {
        CoarsenConfig {
            nc: 2,
            iters: 4,
            monotonic: true,
        }
    }
}

/// View of one dimension of the sparse grid for the 1-D optimization pass.
struct DimView<'a> {
    n: u32,
    line_w: &'a [u64],
    /// CSR offsets: points of line `i` sit at `csr[i]..csr[i+1]`.
    csr: &'a [usize],
    /// `(other-dimension fine coordinate, weight)` of each point, CSR order,
    /// each line's ascending in the coordinate.
    pts: &'a [(u32, u64)],
    /// Candidate interval per line, in other-dimension fine coordinates.
    cand_iv: &'a [(u32, u32)],
}

/// One 1-D pass: re-cut `view`'s lines against the other dimension's cuts.
struct Pass<'a> {
    view: &'a DimView<'a>,
    other_cuts: &'a [u32],
    other_line_w: &'a [u64],
    /// This dimension's cuts in hand (`[0, n]` before the first pass).
    held: &'a [u32],
    nc: usize,
    monotonic: bool,
}

/// Builds CSR point storage grouped by `key(point)`, each group sorted by
/// `other(point)`.
fn build_csr(
    n: u32,
    points: &[SparsePoint],
    key: impl Fn(&SparsePoint) -> u32,
    other: impl Fn(&SparsePoint) -> u32,
) -> (Vec<usize>, Vec<(u32, u64)>) {
    let mut csr = vec![0usize; n as usize + 1];
    for p in points {
        csr[key(p) as usize + 1] += 1;
    }
    for i in 0..n as usize {
        csr[i + 1] += csr[i];
    }
    let mut pos = csr.clone();
    let mut pts = vec![(0u32, 0u64); points.len()];
    for p in points {
        pts[pos[key(p) as usize]] = (other(p), p.w);
        pos[key(p) as usize] += 1;
    }
    for w in csr.windows(2) {
        pts[w[0]..w[1]].sort_unstable_by_key(|&(o, _)| o);
    }
    (csr, pts)
}

/// The smallest interval holding both (`lo > hi` is empty).
#[inline]
fn hull(a: (u32, u32), b: (u32, u32)) -> (u32, u32) {
    if b.0 > b.1 {
        a
    } else if a.0 > a.1 {
        b
    } else {
        (a.0.min(b.0), a.1.max(b.1))
    }
}

/// Maps a fine coordinate to its slab index under `cuts` (ascending,
/// `cuts[0] = 0`, `cuts.last() = n`; slab `s` covers `cuts[s]..cuts[s+1]`).
#[inline]
fn slab_of(cuts: &[u32], fine: u32) -> usize {
    debug_assert!(fine < *cuts.last().unwrap());
    cuts.partition_point(|&c| c <= fine) - 1
}

/// Exact 1-D re-optimization of this dimension's cuts given the other
/// dimension's cuts. Returns `(φ, cuts)`: φ is the smallest bound on a
/// multi-line slab's input plus heaviest candidate cell at which the greedy
/// sweep below fits the lines into `nc` slabs, and the cuts are that sweep's.
///
/// A sweep at φ is a trace of accept / reject decisions, each comparing one
/// value against φ, and every φ from the largest value it accepted up to the
/// smallest it rejected (exclusive) replays the same trace. So a feasible
/// probe lowers the upper bound to its largest accepted value, an infeasible
/// one raises the lower bound to its smallest rejected value (an irreducible
/// line's own weight included), and as feasibility is monotone in φ the two
/// meet at the minimum: the φ, and the cuts, of an integer bisection over
/// `[0, Σ weights]`. The upper bound starts at what the cuts in hand weigh
/// under this pass's candidate rule; a sweep at that bound is feasible, as
/// none of its slabs ends before the held slab it started in.
fn optimize_cuts(p: &Pass<'_>) -> (u64, Vec<u32>) {
    let view = p.view;
    let n = view.n;
    if p.nc as u32 >= n {
        return (0, (0..=n).collect());
    }
    let n_slabs = p.other_cuts.len() - 1;

    // Input weight of each other-dimension slab.
    let other_slab_w: Vec<u64> = p
        .other_cuts
        .windows(2)
        .map(|c| p.other_line_w[c[0] as usize..c[1] as usize].iter().sum())
        .collect();
    // Each line's points merged per other-dimension slab: `(slab, weight)`
    // entries at `ent_csr[i]..ent_csr[i + 1]`, ascending in the slab.
    let mut ent_csr = vec![0usize];
    let mut ents: Vec<(u32, u64)> = Vec::with_capacity(view.pts.len());
    for c in view.csr.windows(2) {
        let start = ents.len();
        for &(o, w) in &view.pts[c[0]..c[1]] {
            let s = slab_of(p.other_cuts, o) as u32;
            match ents[start..].last_mut() {
                Some(e) if e.0 == s => e.1 += w,
                _ => ents.push((s, w)),
            }
        }
        ent_csr.push(ents.len());
    }
    // Candidate interval per line, in other-dimension *slab* coordinates.
    let full_iv = (0u32, n_slabs as u32 - 1);
    let cand_slab_iv: Vec<(u32, u32)> = view
        .cand_iv
        .iter()
        .map(|&(lo, hi)| {
            if !p.monotonic {
                full_iv
            } else if lo > hi {
                (1, 0)
            } else {
                (
                    slab_of(p.other_cuts, lo) as u32,
                    slab_of(p.other_cuts, hi) as u32,
                )
            }
        })
        .collect();

    // What the cuts in hand weigh: a multi-line slab's input plus its
    // heaviest candidate cell (a single line always fits).
    let mut val = vec![0u64; n_slabs];
    let mut held_w = 0u64;
    for c in p.held.windows(2).filter(|c| c[1] - c[0] > 1) {
        val.copy_from_slice(&other_slab_w);
        let (mut rin, mut iv) = (0u64, (1u32, 0u32));
        for i in c[0] as usize..c[1] as usize {
            rin += view.line_w[i];
            for &(s, w) in &ents[ent_csr[i]..ent_csr[i + 1]] {
                val[s as usize] += w;
            }
            iv = hull(iv, cand_slab_iv[i]);
        }
        if iv.0 <= iv.1 {
            let cell = val[iv.0 as usize..=iv.1 as usize].iter().max();
            held_w = held_w.max(rin + cell.unwrap());
        }
    }

    // Greedy sweep: can we form ≤ nc slabs with every candidate coarse cell
    // of a multi-line slab weighing ≤ phi? Returns the cuts on success, and
    // the largest value accepted and the smallest rejected.
    let mut sweep = |phi: u64| -> (Option<Vec<u32>>, u64, u64) {
        let (mut accepted, mut rejected) = (0u64, u64::MAX);
        let mut cuts = vec![0u32];
        let mut i = 0u32;
        while i < n {
            // Open a slab at line i.
            val.copy_from_slice(&other_slab_w);
            let mut rin = 0u64;
            let mut base_max = 0u64;
            let mut iv: (u32, u32) = (1, 0); // empty
            let open = i;
            while i < n {
                let idx = i as usize;
                let new_rin = rin + view.line_w[idx];
                let new_iv = hull(iv, cand_slab_iv[idx]);
                // Apply this line's entries and take the max candidate-cell
                // value: old base plus touched slabs plus slabs newly brought
                // into the interval.
                let mut tentative = base_max;
                for &(s, w) in &ents[ent_csr[idx]..ent_csr[idx + 1]] {
                    val[s as usize] += w;
                    if new_iv.0 <= s && s <= new_iv.1 {
                        tentative = tentative.max(val[s as usize]);
                    }
                }
                if new_iv.0 <= new_iv.1 {
                    if iv.0 > iv.1 {
                        for s in new_iv.0..=new_iv.1 {
                            tentative = tentative.max(val[s as usize]);
                        }
                    } else {
                        for s in new_iv.0..iv.0 {
                            tentative = tentative.max(val[s as usize]);
                        }
                        for s in iv.1 + 1..=new_iv.1 {
                            tentative = tentative.max(val[s as usize]);
                        }
                    }
                }
                // A slab without candidate cells weighs nothing.
                let value = if new_iv.0 > new_iv.1 {
                    0
                } else {
                    new_rin + tentative
                };
                if value <= phi {
                    accepted = accepted.max(value);
                    rin = new_rin;
                    base_max = tentative;
                    iv = new_iv;
                    i += 1;
                    continue;
                }
                rejected = rejected.min(value);
                // An irreducible unit never fails a feasibility test: a
                // single line over phi is a slab of its own, charged to the
                // slab budget like any other. Any other line opens the next
                // slab, which starts from fresh cell totals.
                if i == open {
                    i += 1;
                }
                break;
            }
            cuts.push(i);
            if cuts.len() - 1 == p.nc && i < n {
                // Slab budget exhausted with lines remaining.
                return (None, accepted, rejected);
            }
        }
        (Some(cuts), accepted, rejected)
    };

    let (mut lo, mut hi) = (0u64, held_w);
    let mut found = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match sweep(mid) {
            (Some(cuts), accepted, _) => (hi, found) = (accepted, Some(cuts)),
            (None, _, rejected) => lo = rejected,
        }
    }
    let cuts = found.unwrap_or_else(|| sweep(hi).0.expect("the cuts in hand fit their own weight"));
    (hi, cuts)
}

/// Materialized coarse-grid weights: `(row_w, col_w, out, cand)` with `out`
/// and `cand` dense row-major over the coarse cells.
pub fn grid_cell_weights(
    sg: &SparseGrid,
    row_cuts: &[u32],
    col_cuts: &[u32],
) -> (Vec<u64>, Vec<u64>, Vec<u64>, Vec<bool>) {
    let nr = row_cuts.len() - 1;
    let nc = col_cuts.len() - 1;
    let mut row_w = vec![0u64; nr];
    for (s, w) in row_w.iter_mut().enumerate() {
        *w = sg.row_w[row_cuts[s] as usize..row_cuts[s + 1] as usize]
            .iter()
            .sum();
    }
    let mut col_w = vec![0u64; nc];
    for (s, w) in col_w.iter_mut().enumerate() {
        *w = sg.col_w[col_cuts[s] as usize..col_cuts[s + 1] as usize]
            .iter()
            .sum();
    }
    let mut out = vec![0u64; nr * nc];
    for p in &sg.points {
        let r = slab_of(row_cuts, p.row);
        let c = slab_of(col_cuts, p.col);
        out[r * nc + c] += p.w;
    }
    let mut cand = vec![false; nr * nc];
    for (i, &(lo, hi)) in sg.cand.iter().enumerate() {
        if lo > hi {
            continue;
        }
        let r = slab_of(row_cuts, i as u32);
        let c0 = slab_of(col_cuts, lo);
        let c1 = slab_of(col_cuts, hi);
        for c in c0..=c1 {
            cand[r * nc + c] = true;
        }
    }
    (row_w, col_w, out, cand)
}

/// Maximum candidate-cell weight of the coarse grid induced by the cuts —
/// the objective the coarsening minimizes.
pub fn grid_max_cell_weight(sg: &SparseGrid, row_cuts: &[u32], col_cuts: &[u32]) -> u64 {
    let (row_w, col_w, out, cand) = grid_cell_weights(sg, row_cuts, col_cuts);
    let nc = col_w.len();
    let mut max = 0u64;
    for (idx, &is_cand) in cand.iter().enumerate() {
        if is_cand {
            let w = row_w[idx / nc] + col_w[idx % nc] + out[idx];
            max = max.max(w);
        }
    }
    max
}

/// The coarsening stage: grid cuts (`row_cuts`, `col_cuts`) minimizing the
/// maximum candidate cell weight, by alternating exact 1-D re-optimization.
pub fn coarsen(sg: &SparseGrid, cfg: &CoarsenConfig) -> (Vec<u32>, Vec<u32>) {
    coarsen_by(sg, cfg, |pass| optimize_cuts(pass).1)
}

/// [`coarsen`]'s alternation, each 1-D pass solved by `solve` (the tests
/// solve them with the integer bisection too, and compare).
fn coarsen_by(
    sg: &SparseGrid,
    cfg: &CoarsenConfig,
    mut solve: impl FnMut(&Pass<'_>) -> Vec<u32>,
) -> (Vec<u32>, Vec<u32>) {
    assert!(cfg.nc >= 1);
    let identity_rows: Vec<u32> = (0..=sg.n_rows).collect();
    let identity_cols: Vec<u32> = (0..=sg.n_cols).collect();
    if cfg.nc as u32 >= sg.n_rows && cfg.nc as u32 >= sg.n_cols {
        return (identity_rows, identity_cols);
    }

    // Monotonic candidate tracking needs the staircase property; fall back to
    // treating everything as candidate otherwise (correct, just slower to
    // balance).
    let monotonic = cfg.monotonic && sg.is_staircase();

    // Row-major and column-major CSR views of the points.
    let (row_csr, row_pts) = build_csr(sg.n_rows, &sg.points, |p| p.row, |p| p.col);
    let (col_csr, col_pts) = build_csr(sg.n_cols, &sg.points, |p| p.col, |p| p.row);
    let col_cand = sg.col_cand();

    let row_view = DimView {
        n: sg.n_rows,
        line_w: &sg.row_w,
        csr: &row_csr,
        pts: &row_pts,
        cand_iv: &sg.cand,
    };
    let col_view = DimView {
        n: sg.n_cols,
        line_w: &sg.col_w,
        csr: &col_csr,
        pts: &col_pts,
        cand_iv: &col_cand,
    };
    let nc = cfg.nc;
    let mut pass = |view: &DimView<'_>, other_cuts: &[u32], other_line_w: &[u64], held: &[u32]| {
        solve(&Pass {
            view,
            other_cuts,
            other_line_w,
            held,
            nc,
            monotonic,
        })
    };

    // Initialize each dimension against a single collapsed slab of the other.
    let (all_rows, all_cols) = ([0, sg.n_rows], [0, sg.n_cols]);
    let zeros = vec![0; sg.n_rows.max(sg.n_cols) as usize];
    let mut row_cuts = pass(&row_view, &all_cols, &zeros, &all_rows);
    let mut col_cuts = pass(&col_view, &all_rows, &zeros, &all_cols);

    let mut best = (row_cuts.clone(), col_cuts.clone());
    let mut best_w = grid_max_cell_weight(sg, &row_cuts, &col_cuts);
    for _ in 0..cfg.iters {
        row_cuts = pass(&row_view, &col_cuts, &sg.col_w, &row_cuts);
        col_cuts = pass(&col_view, &row_cuts, &sg.row_w, &col_cuts);
        let w = grid_max_cell_weight(sg, &row_cuts, &col_cuts);
        if w < best_w {
            best_w = w;
            best = (row_cuts.clone(), col_cuts.clone());
        } else {
            break; // converged
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Diagonal band with a hot head: rows 0..=1 carry heavy output.
    fn skewed_band(n: u32) -> SparseGrid {
        let mut points = Vec::new();
        let mut cand = Vec::new();
        for i in 0..n {
            let lo = i.saturating_sub(1);
            let hi = (i + 1).min(n - 1);
            cand.push((lo, hi));
            let w = if i < 2 { 50 } else { 1 };
            points.push(SparsePoint { row: i, col: i, w });
        }
        SparseGrid::new(n, n, vec![4; n as usize], vec![4; n as usize], points, cand)
    }

    fn check_cuts(cuts: &[u32], n: u32, nc: usize) {
        assert_eq!(cuts[0], 0);
        assert_eq!(*cuts.last().unwrap(), n);
        assert!(
            cuts.windows(2).all(|w| w[0] < w[1]),
            "cuts not increasing: {cuts:?}"
        );
        assert!(cuts.len() - 1 <= nc);
    }

    #[test]
    fn a_single_column_grid_balances_like_a_1d_partition() {
        // Against one column, a pass is the 1-D min-max partition of the rows.
        let cuts = |w: &[u64], nc| {
            let n = w.len() as u32;
            let cand = vec![(0, 0); n as usize];
            let sg = SparseGrid::new(n, 1, w.to_vec(), vec![0], Vec::new(), cand);
            let cfg = CoarsenConfig {
                nc,
                iters: 4,
                monotonic: true,
            };
            coarsen(&sg, &cfg).0
        };
        assert_eq!(cuts(&[1; 8], 4), vec![0, 2, 4, 6, 8]);
        // A heavy head forces a singleton slab.
        assert_eq!(cuts(&[100, 1, 1, 1], 2), vec![0, 1, 4]);
        // nc >= n: identity.
        assert_eq!(cuts(&[3, 3], 5), vec![0, 1, 2]);
    }

    /// The integer bisection over `[0, Σ weights]` that `optimize_cuts`
    /// replaced, probing with one entry per point: `(φ, cuts)`.
    fn bisection_oracle(p: &Pass<'_>) -> (u64, Vec<u32>) {
        let (view, n, nc) = (p.view, p.view.n, p.nc);
        if nc as u32 >= n {
            return (0, (0..=n).collect());
        }
        let n_slabs = p.other_cuts.len() - 1;
        let mut other_slab_w = vec![0u64; n_slabs];
        for (s, w) in other_slab_w.iter_mut().enumerate() {
            *w = p.other_line_w[p.other_cuts[s] as usize..p.other_cuts[s + 1] as usize]
                .iter()
                .sum();
        }
        let pt_slab: Vec<u32> = view
            .pts
            .iter()
            .map(|&(o, _)| slab_of(p.other_cuts, o) as u32)
            .collect();
        let cand_slab_iv: Vec<(u32, u32)> = view
            .cand_iv
            .iter()
            .map(|&(lo, hi)| {
                if !p.monotonic {
                    (0, n_slabs as u32 - 1)
                } else if lo > hi {
                    (1, 0)
                } else {
                    (
                        slab_of(p.other_cuts, lo) as u32,
                        slab_of(p.other_cuts, hi) as u32,
                    )
                }
            })
            .collect();
        let mut val = vec![0u64; n_slabs];
        let mut feasible = |phi: u64| -> Option<Vec<u32>> {
            let mut cuts = vec![0u32];
            let mut i = 0u32;
            while i < n {
                val.copy_from_slice(&other_slab_w);
                let mut rin = 0u64;
                let mut base_max = 0u64;
                let mut iv: (u32, u32) = (1, 0);
                let mut lines = 0u32;
                while i < n {
                    let idx = i as usize;
                    let new_rin = rin + view.line_w[idx];
                    let range = view.csr[idx]..view.csr[idx + 1];
                    for k in range.clone() {
                        val[pt_slab[k] as usize] += view.pts[k].1;
                    }
                    let li = cand_slab_iv[idx];
                    let new_iv = if li.0 > li.1 {
                        iv
                    } else if iv.0 > iv.1 {
                        li
                    } else {
                        (iv.0.min(li.0), iv.1.max(li.1))
                    };
                    let mut tentative = base_max;
                    for k in range.clone() {
                        let s = pt_slab[k];
                        if new_iv.0 <= s && s <= new_iv.1 {
                            tentative = tentative.max(val[s as usize]);
                        }
                    }
                    if new_iv.0 <= new_iv.1 {
                        if iv.0 > iv.1 {
                            for s in new_iv.0..=new_iv.1 {
                                tentative = tentative.max(val[s as usize]);
                            }
                        } else {
                            for s in new_iv.0..iv.0 {
                                tentative = tentative.max(val[s as usize]);
                            }
                            for s in iv.1 + 1..=new_iv.1 {
                                tentative = tentative.max(val[s as usize]);
                            }
                        }
                    }
                    if new_iv.0 > new_iv.1 || new_rin + tentative <= phi {
                        rin = new_rin;
                        base_max = tentative;
                        iv = new_iv;
                        lines += 1;
                        i += 1;
                    } else if lines == 0 {
                        i += 1;
                        break;
                    } else {
                        for k in range {
                            val[pt_slab[k] as usize] -= view.pts[k].1;
                        }
                        break;
                    }
                }
                cuts.push(i);
                if cuts.len() - 1 == nc && i < n {
                    return None;
                }
            }
            Some(cuts)
        };
        let total: u64 = view.line_w.iter().sum::<u64>()
            + view.pts.iter().map(|&(_, w)| w).sum::<u64>()
            + other_slab_w.iter().copied().max().unwrap_or(0);
        let (mut lo, mut hi) = (0u64, total);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible(mid).is_some() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        (
            lo,
            feasible(lo).expect("the bisection converged on a feasible φ"),
        )
    }

    /// What lines `a..e` weigh as one slab under a pass's rule, from the
    /// points themselves: input plus the heaviest cell from the lowest
    /// candidate slab to the highest, 0 without candidates.
    fn brute_slab_weight(p: &Pass<'_>, a: u32, e: u32) -> u64 {
        let v = p.view;
        let n_slabs = p.other_cuts.len() - 1;
        let mut cell: Vec<u64> = p
            .other_cuts
            .windows(2)
            .map(|c| p.other_line_w[c[0] as usize..c[1] as usize].iter().sum())
            .collect();
        let (mut rin, mut lo, mut hi) = (0u64, usize::MAX, 0usize);
        for i in a as usize..e as usize {
            rin += v.line_w[i];
            for &(o, w) in &v.pts[v.csr[i]..v.csr[i + 1]] {
                cell[slab_of(p.other_cuts, o)] += w;
            }
            let (clo, chi) = v.cand_iv[i];
            if !p.monotonic {
                (lo, hi) = (0, n_slabs - 1);
            } else if clo <= chi {
                lo = lo.min(slab_of(p.other_cuts, clo));
                hi = hi.max(slab_of(p.other_cuts, chi));
            }
        }
        if lo > hi {
            0
        } else {
            rin + cell[lo..=hi].iter().max().unwrap()
        }
    }

    /// The weight a pass minimizes: its heaviest multi-line slab.
    fn brute_cuts_weight(p: &Pass<'_>, cuts: &[u32]) -> u64 {
        cuts.windows(2)
            .filter(|c| c[1] - c[0] > 1)
            .map(|c| brute_slab_weight(p, c[0], c[1]))
            .max()
            .unwrap_or(0)
    }

    /// The least weight of any cut into at most `nc` slabs, by trying them
    /// all.
    fn brute_min(p: &Pass<'_>) -> u64 {
        let n = p.view.n;
        (0u32..1 << (n - 1))
            .filter(|mask| (mask.count_ones() as usize) < p.nc)
            .map(|mask| {
                let inner = (1..n).filter(|b| mask & (1 << (b - 1)) != 0);
                let cuts: Vec<u32> = std::iter::once(0).chain(inner).chain([n]).collect();
                brute_cuts_weight(p, &cuts)
            })
            .min()
            .unwrap()
    }

    /// Random sparse grid of 1..=`max_n` lines a side: zero, light and
    /// heavy (irreducible) lines and points, rows without candidates, points
    /// outside them, a staircase or arbitrary intervals.
    fn random_grid(max_n: u32) -> impl Strategy<Value = SparseGrid> {
        let weight = |r: u64| match r {
            0..=19 => 0,
            20..=89 => r - 19,
            _ => 1000 + r,
        };
        (1..=max_n, 1..=max_n, any::<bool>()).prop_flat_map(move |(nr, nc, staircase)| {
            let rows = vec(0u64..100, nr as usize);
            let cols = vec(0u64..100, nc as usize);
            let points = vec((0..nr, 0..nc, 0u64..100), 0..3 * max_n as usize);
            let cand = vec((0u32..6, 0..nc, 0..nc), nr as usize);
            (rows, cols, points, cand).prop_map(move |(rw, cw, pts, cand)| {
                let cand = cand
                    .iter()
                    .enumerate()
                    .map(|(i, &(kind, a, b))| match kind {
                        0 => (1, 0),
                        _ if staircase => {
                            let d = i as u32 * nc / nr;
                            (d.saturating_sub(1), (d + 1).min(nc - 1))
                        }
                        _ => (a.min(b), a.max(b)),
                    })
                    .collect();
                let points = pts
                    .iter()
                    .map(|&(row, col, w)| SparsePoint {
                        row,
                        col,
                        w: weight(w),
                    })
                    .collect();
                let (rw, cw) = (rw.into_iter().map(weight), cw.into_iter().map(weight));
                SparseGrid::new(nr, nc, rw.collect(), cw.collect(), points, cand)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn every_pass_matches_the_integer_bisection(
            sg in random_grid(24),
            nc in 1usize..28,
            iters in 0usize..4,
            monotonic in any::<bool>(),
        ) {
            let cfg = CoarsenConfig { nc, iters, monotonic };
            let mut diverged = Vec::new();
            let checked = coarsen_by(&sg, &cfg, |p| {
                let (got, want) = (optimize_cuts(p), bisection_oracle(p));
                if got != want {
                    diverged.push((got.clone(), want));
                }
                got.1
            });
            prop_assert!(diverged.is_empty(), "(φ, cuts) vs the oracle: {:?}", diverged);
            prop_assert_eq!(&coarsen(&sg, &cfg), &checked);
            prop_assert_eq!(coarsen_by(&sg, &cfg, |p| bisection_oracle(p).1), checked);
        }

        #[test]
        fn every_pass_reaches_the_exhaustive_minimum(
            sg in random_grid(10),
            nc in 1usize..12,
            monotonic in any::<bool>(),
        ) {
            let cfg = CoarsenConfig { nc, iters: 2, monotonic };
            let mut wrong = Vec::new();
            coarsen_by(&sg, &cfg, |p| {
                let (phi, cuts) = optimize_cuts(p);
                let slabs_ok = cuts.len() - 1 <= nc && cuts.windows(2).all(|c| c[0] < c[1]);
                let best = brute_min(p);
                if !slabs_ok || phi != best || brute_cuts_weight(p, &cuts) != phi {
                    wrong.push((phi, best, cuts.clone()));
                }
                cuts
            });
            prop_assert!(wrong.is_empty(), "(φ, minimum, cuts): {:?}", wrong);
        }

        #[test]
        fn col_cand_spans_the_rows_whose_interval_holds_each_column(sg in random_grid(24)) {
            // A superset always; on a staircase exact, but for rows without
            // candidates, which add no cell.
            for (j, &(lo, hi)) in sg.col_cand().iter().enumerate() {
                let holds = |i: usize| sg.cand[i].0 as usize <= j && j <= sg.cand[i].1 as usize;
                let rows: Vec<usize> = (0..sg.n_rows as usize).filter(|&i| holds(i)).collect();
                let spanned = |i: &usize| (lo as usize..=hi as usize).contains(i);
                prop_assert!(rows.iter().all(spanned), "column {} misses a row", j);
                if sg.is_staircase() {
                    let has_cand = |&i: &usize| sg.cand[i].0 <= sg.cand[i].1;
                    let within: Vec<usize> = (lo as usize..=hi as usize).filter(has_cand).collect();
                    prop_assert_eq!(within, rows, "column {}", j);
                }
            }
        }
    }

    #[test]
    fn coarsen_produces_valid_cuts() {
        let sg = skewed_band(32);
        let cfg = CoarsenConfig {
            nc: 6,
            iters: 4,
            monotonic: true,
        };
        let (rc, cc) = coarsen(&sg, &cfg);
        check_cuts(&rc, 32, 6);
        check_cuts(&cc, 32, 6);
    }

    #[test]
    fn coarsen_isolates_the_hot_head() {
        // With enough slabs, the heavy rows should not be merged with many
        // cold rows: the max cell weight must come close to the hot cells'
        // own weight rather than an aggregate.
        let sg = skewed_band(32);
        let cfg = CoarsenConfig {
            nc: 8,
            iters: 6,
            monotonic: true,
        };
        let (rc, cc) = coarsen(&sg, &cfg);
        let got = grid_max_cell_weight(&sg, &rc, &cc);
        // Uniform 4-slab cuts would put both hot points (2 × 50) plus inputs
        // in one cell: >= 100. The optimizer must beat that comfortably.
        assert!(got < 100, "max cell weight {got} not skew-aware");
    }

    #[test]
    fn monotonic_and_generic_agree_on_feasibility() {
        // MonotonicCoarsening may produce different (better) cuts, but both
        // must produce valid grids; and for a fully-candidate matrix they
        // solve the same problem.
        let n = 16u32;
        let points: Vec<SparsePoint> = (0..n)
            .map(|i| SparsePoint {
                row: i,
                col: (i * 7) % n,
                w: 3,
            })
            .collect();
        let cand = vec![(0u32, n - 1); n as usize]; // everything candidate
        let sg = SparseGrid::new(n, n, vec![2; n as usize], vec![2; n as usize], points, cand);
        let cfg_m = CoarsenConfig {
            nc: 4,
            iters: 4,
            monotonic: true,
        };
        let cfg_g = CoarsenConfig {
            nc: 4,
            iters: 4,
            monotonic: false,
        };
        let (rm, cm) = coarsen(&sg, &cfg_m);
        let (rg, cg) = coarsen(&sg, &cfg_g);
        assert_eq!(
            grid_max_cell_weight(&sg, &rm, &cm),
            grid_max_cell_weight(&sg, &rg, &cg)
        );
    }

    #[test]
    fn nc_larger_than_grid_is_identity() {
        let sg = skewed_band(4);
        let cfg = CoarsenConfig {
            nc: 10,
            iters: 2,
            monotonic: true,
        };
        let (rc, cc) = coarsen(&sg, &cfg);
        assert_eq!(rc, vec![0, 1, 2, 3, 4]);
        assert_eq!(cc, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn more_slabs_never_hurt() {
        let sg = skewed_band(48);
        let mut prev = u64::MAX;
        for nc in [2usize, 4, 8, 16] {
            let cfg = CoarsenConfig {
                nc,
                iters: 4,
                monotonic: true,
            };
            let (rc, cc) = coarsen(&sg, &cfg);
            let w = grid_max_cell_weight(&sg, &rc, &cc);
            assert!(w <= prev, "nc={nc}: {w} > {prev}");
            prev = w;
        }
    }

    #[test]
    fn cell_weights_match_brute_force() {
        let sg = skewed_band(16);
        let rc = vec![0u32, 4, 8, 12, 16];
        let cc = vec![0u32, 5, 10, 16];
        let (row_w, col_w, out, _cand) = grid_cell_weights(&sg, &rc, &cc);
        assert_eq!(row_w, vec![16, 16, 16, 16]);
        assert_eq!(col_w, vec![20, 20, 24]);
        let mut expect = vec![0u64; 4 * 3];
        for p in &sg.points {
            let r = rc.iter().rposition(|&c| c <= p.row).unwrap();
            let c = cc.iter().rposition(|&c| c <= p.col).unwrap();
            expect[r * 3 + c] += p.w;
        }
        assert_eq!(out, expect);
    }
}
