//! Coarsening: grid partitioning of the sample matrix `MS` into `MC`.
//!
//! §III-B of the paper: impose an `nc × nc` grid over the (sparse) sample
//! matrix minimizing the maximum *candidate* cell weight — the RTILE problem
//! with grid partitioning and the MAX-WEIGHT metric (Muthukrishnan & Suel,
//! J. Algorithms 2005, approximation ratio 2). The algorithm iteratively
//! improves the grid: fix the column cuts and re-optimize the row cuts
//! *exactly* (binary search over the cell-weight bound φ with a greedy slab
//! feasibility check), then swap dimensions, until the max cell weight stops
//! improving. A single fine line heavier than φ cannot be cut any further:
//! it becomes a slab of its own rather than making φ infeasible, so one
//! heavy hitter does not set the bound every other slab is packed to (the
//! tiling stage gives such a cell several regions instead, see
//! [`crate::partition_max_weight`]).
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
    /// Other-dimension fine coordinate of each point (CSR order).
    pt_other: &'a [u32],
    pt_w: &'a [u64],
    /// Candidate interval per line, in other-dimension fine coordinates.
    cand_iv: &'a [(u32, u32)],
}

/// Builds CSR point storage grouped by `key(point)`.
fn build_csr(
    n: u32,
    points: &[SparsePoint],
    key: impl Fn(&SparsePoint) -> u32,
    other: impl Fn(&SparsePoint) -> u32,
) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
    let mut csr = vec![0usize; n as usize + 1];
    for p in points {
        csr[key(p) as usize + 1] += 1;
    }
    for i in 0..n as usize {
        csr[i + 1] += csr[i];
    }
    let mut pos = csr.clone();
    let mut pt_other = vec![0u32; points.len()];
    let mut pt_w = vec![0u64; points.len()];
    for p in points {
        let slot = pos[key(p) as usize];
        pt_other[slot] = other(p);
        pt_w[slot] = p.w;
        pos[key(p) as usize] += 1;
    }
    (csr, pt_other, pt_w)
}

/// Maps a fine coordinate to its slab index under `cuts` (ascending,
/// `cuts[0] = 0`, `cuts.last() = n`; slab `s` covers `cuts[s]..cuts[s+1]`).
#[inline]
fn slab_of(cuts: &[u32], fine: u32) -> usize {
    debug_assert!(fine < *cuts.last().unwrap());
    cuts.partition_point(|&c| c <= fine) - 1
}

/// Exact 1-D re-optimization of this dimension's cuts given the other
/// dimension's cuts: binary search over the max candidate-cell weight φ with
/// a greedy feasibility sweep.
fn optimize_cuts(
    view: &DimView<'_>,
    other_cuts: &[u32],
    other_line_w: &[u64],
    nc: usize,
    monotonic: bool,
) -> Vec<u32> {
    let n = view.n;
    if nc as u32 >= n {
        return (0..=n).collect();
    }
    let n_slabs = other_cuts.len() - 1;

    // Input weight of each other-dimension slab.
    let mut other_slab_w = vec![0u64; n_slabs];
    for (s, w) in other_slab_w.iter_mut().enumerate() {
        *w = other_line_w[other_cuts[s] as usize..other_cuts[s + 1] as usize]
            .iter()
            .sum();
    }
    // Pre-resolve each point's other-dimension slab for this pass.
    let pt_slab: Vec<u32> = view
        .pt_other
        .iter()
        .map(|&o| slab_of(other_cuts, o) as u32)
        .collect();
    // Candidate interval per line, in other-dimension *slab* coordinates.
    let full_iv = (0u32, n_slabs as u32 - 1);
    let cand_slab_iv: Vec<(u32, u32)> = view
        .cand_iv
        .iter()
        .map(|&(lo, hi)| {
            if !monotonic {
                full_iv
            } else if lo > hi {
                (1, 0)
            } else {
                (
                    slab_of(other_cuts, lo) as u32,
                    slab_of(other_cuts, hi) as u32,
                )
            }
        })
        .collect();

    // Greedy sweep: can we form ≤ nc slabs with every candidate coarse cell
    // of a multi-line slab weighing ≤ phi? Returns the cuts on success.
    let mut val = vec![0u64; n_slabs];
    let mut feasible = |phi: u64| -> Option<Vec<u32>> {
        let mut cuts = vec![0u32];
        let mut i = 0u32;
        while i < n {
            // Open a slab at line i.
            val.copy_from_slice(&other_slab_w);
            let mut rin = 0u64;
            let mut base_max = 0u64;
            let mut iv: (u32, u32) = (1, 0); // empty
            let mut lines = 0u32;
            while i < n {
                let idx = i as usize;
                let new_rin = rin + view.line_w[idx];
                // Tentatively apply this line's points, remembering touches
                // for rollback.
                let range = view.csr[idx]..view.csr[idx + 1];
                for k in range.clone() {
                    val[pt_slab[k] as usize] += view.pt_w[k];
                }
                // Extend the candidate interval.
                let li = cand_slab_iv[idx];
                let new_iv = if li.0 > li.1 {
                    iv
                } else if iv.0 > iv.1 {
                    li
                } else {
                    (iv.0.min(li.0), iv.1.max(li.1))
                };
                // Max candidate-cell value: old base plus touched slabs plus
                // slabs newly brought into the interval.
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
                let ok = new_iv.0 > new_iv.1 || new_rin + tentative <= phi;
                if ok {
                    rin = new_rin;
                    base_max = tentative;
                    iv = new_iv;
                    lines += 1;
                    i += 1;
                } else if lines == 0 {
                    // An irreducible unit never fails a feasibility test: a
                    // single line over phi is a slab of its own, charged to
                    // the slab budget like any other.
                    i += 1;
                    break;
                } else {
                    // Roll the tentative points back and close the slab.
                    for k in range {
                        val[pt_slab[k] as usize] -= view.pt_w[k];
                    }
                    break;
                }
            }
            cuts.push(i);
            if cuts.len() - 1 == nc && i < n {
                return None; // slab budget exhausted with lines remaining
            }
        }
        Some(cuts)
    };

    let total: u64 = view.line_w.iter().sum::<u64>()
        + view.pt_w.iter().sum::<u64>()
        + other_slab_w.iter().copied().max().unwrap_or(0);
    let mut lo = 0u64;
    let mut hi = total;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    feasible(lo).expect("binary search converged on a feasible phi")
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

/// Classic 1-D min-max contiguous partition of `weights` into at most `k`
/// slabs (binary search + greedy). Returns ascending cuts `[0, ..., n]`.
pub fn equi_weight_1d(weights: &[u64], k: usize) -> Vec<u32> {
    assert!(k >= 1);
    let n = weights.len() as u32;
    if k as u32 >= n {
        return (0..=n).collect();
    }
    let greedy = |phi: u64| -> Option<Vec<u32>> {
        let mut cuts = vec![0u32];
        let mut acc = 0u64;
        for (i, &w) in weights.iter().enumerate() {
            if w > phi {
                return None;
            }
            if acc + w > phi {
                cuts.push(i as u32);
                acc = w;
            } else {
                acc += w;
            }
        }
        cuts.push(n);
        (cuts.len() - 1 <= k).then_some(cuts)
    };
    let mut lo = weights.iter().copied().max().unwrap_or(0);
    let mut hi = weights.iter().sum::<u64>();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if greedy(mid).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    greedy(lo).expect("sum of weights is always feasible")
}

/// The coarsening stage: grid cuts (`row_cuts`, `col_cuts`) minimizing the
/// maximum candidate cell weight, by alternating exact 1-D re-optimization.
pub fn coarsen(sg: &SparseGrid, cfg: &CoarsenConfig) -> (Vec<u32>, Vec<u32>) {
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
    let (row_csr, row_pt_other, row_pt_w) = build_csr(sg.n_rows, &sg.points, |p| p.row, |p| p.col);
    let (col_csr, col_pt_other, col_pt_w) = build_csr(sg.n_cols, &sg.points, |p| p.col, |p| p.row);
    let col_cand = sg.col_cand();

    let row_view = DimView {
        n: sg.n_rows,
        line_w: &sg.row_w,
        csr: &row_csr,
        pt_other: &row_pt_other,
        pt_w: &row_pt_w,
        cand_iv: &sg.cand,
    };
    let col_view = DimView {
        n: sg.n_cols,
        line_w: &sg.col_w,
        csr: &col_csr,
        pt_other: &col_pt_other,
        pt_w: &col_pt_w,
        cand_iv: &col_cand,
    };

    // Initialize each dimension against a single collapsed slab of the other.
    let other_one = [0u32, sg.n_cols];
    let mut row_cuts = optimize_cuts(
        &row_view,
        &other_one,
        &vec![0; sg.n_cols as usize],
        cfg.nc,
        monotonic,
    );
    let other_one = [0u32, sg.n_rows];
    let mut col_cuts = optimize_cuts(
        &col_view,
        &other_one,
        &vec![0; sg.n_rows as usize],
        cfg.nc,
        monotonic,
    );

    let mut best = (row_cuts.clone(), col_cuts.clone());
    let mut best_w = grid_max_cell_weight(sg, &row_cuts, &col_cuts);
    for _ in 0..cfg.iters {
        row_cuts = optimize_cuts(&row_view, &col_cuts, &sg.col_w, cfg.nc, monotonic);
        col_cuts = optimize_cuts(&col_view, &row_cuts, &sg.row_w, cfg.nc, monotonic);
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
    fn equi_weight_1d_balances() {
        let cuts = equi_weight_1d(&[1, 1, 1, 1, 1, 1, 1, 1], 4);
        assert_eq!(cuts, vec![0, 2, 4, 6, 8]);
        // A heavy head forces a singleton slab.
        let cuts = equi_weight_1d(&[100, 1, 1, 1], 2);
        assert_eq!(cuts, vec![0, 1, 4]);
        // k >= n: identity.
        assert_eq!(equi_weight_1d(&[3, 3], 5), vec![0, 1, 2]);
    }

    #[test]
    fn equi_weight_1d_minimizes_max_slab() {
        // Brute-force optimum on a small instance.
        let w = [5u64, 3, 8, 1, 7, 2, 6];
        let k = 3;
        let cuts = equi_weight_1d(&w, k);
        let slab_max = |cuts: &[u32]| {
            cuts.windows(2)
                .map(|c| w[c[0] as usize..c[1] as usize].iter().sum::<u64>())
                .max()
                .unwrap()
        };
        let got = slab_max(&cuts);
        // Enumerate all 2-cut positions.
        let mut best = u64::MAX;
        for a in 1..w.len() {
            for b in a + 1..w.len() {
                let cand = vec![0, a as u32, b as u32, w.len() as u32];
                best = best.min(slab_max(&cand));
            }
        }
        assert_eq!(got, best);
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
