//! CSI — the content-sensitive, input-only M-Bucket scheme (§II-B; the
//! M-Bucket-I heuristic of Okcan & Riedewald, SIGMOD 2011).
//!
//! Approximate equi-depth histograms with `p` buckets per relation form a
//! `p × p` grid over the join matrix; only *candidate* grid cells (those that
//! may produce output, checked from bucket boundaries in O(1)) are assigned
//! to machines. Regions are built by the row-block covering heuristic:
//! binary-search the per-region input budget `T`; for each budget, scan row
//! blocks top-down, choosing the block height that maximizes covered
//! candidate cells per region, and chop each block's candidate column span
//! into column chunks whose input fits in `T`.
//!
//! CSI never estimates outputs — each candidate cell counts the same — which
//! is exactly the JPS blindness the paper's CSIO fixes.

use std::time::Instant;

use ewh_sampling::EquiDepthHistogram;

use crate::histogram::{candidate_intervals, SideStats};
use crate::{
    BuildInfo, GridRouter, JoinCondition, Key, KeyRange, PartitionScheme, Region, Router,
    SchemeKind,
};

/// CSI tunables.
#[derive(Clone, Copy, Debug)]
pub struct CsiParams {
    /// Histogram buckets per relation (the paper's experiments use
    /// p = 2000, Table V sweeps 2000–24000).
    pub p: usize,
    /// RNG seed for the input sampling.
    pub seed: u64,
}

impl Default for CsiParams {
    fn default() -> Self {
        CsiParams {
            p: 2000,
            seed: 0x5EED,
        }
    }
}

struct CandGrid {
    /// Candidate column interval per row bucket (inclusive; `lo > hi` empty).
    iv: Vec<(u32, u32)>,
    /// Prefix sums of interval lengths, for O(1) cells-in-block counts.
    cells_pfx: Vec<u64>,
    /// Smallest non-empty row index ≥ r (or n_rows).
    next_nonempty: Vec<u32>,
    /// Largest non-empty row index ≤ r (or u32::MAX).
    prev_nonempty: Vec<u32>,
    /// Input tuples represented by one row / one column bucket.
    row_unit: u64,
    col_unit: u64,
}

impl CandGrid {
    fn new(iv: Vec<(u32, u32)>, row_unit: u64, col_unit: u64) -> Self {
        let n = iv.len();
        let mut cells_pfx = Vec::with_capacity(n + 1);
        cells_pfx.push(0u64);
        for &(lo, hi) in &iv {
            let len = if lo <= hi { (hi - lo + 1) as u64 } else { 0 };
            cells_pfx.push(cells_pfx.last().unwrap() + len);
        }
        let mut next_nonempty = vec![n as u32; n];
        let mut next = n as u32;
        for r in (0..n).rev() {
            if iv[r].0 <= iv[r].1 {
                next = r as u32;
            }
            next_nonempty[r] = next;
        }
        let mut prev_nonempty = vec![u32::MAX; n];
        let mut prev = u32::MAX;
        for r in 0..n {
            if iv[r].0 <= iv[r].1 {
                prev = r as u32;
            }
            prev_nonempty[r] = prev;
        }
        CandGrid {
            iv,
            cells_pfx,
            next_nonempty,
            prev_nonempty,
            row_unit,
            col_unit,
        }
    }

    fn cells_in_rows(&self, r0: usize, r1: usize) -> u64 {
        self.cells_pfx[r1 + 1] - self.cells_pfx[r0]
    }

    /// Candidate column span of a row block in O(1): monotonic conditions
    /// make the intervals a staircase, so the span runs from the first
    /// non-empty row's `lo` to the last non-empty row's `hi`.
    fn span(&self, r0: usize, r1: usize) -> Option<(u32, u32)> {
        let a = self.next_nonempty[r0] as usize;
        if a > r1 {
            return None;
        }
        let b = self.prev_nonempty[r1] as usize;
        debug_assert!(b >= a);
        Some((self.iv[a].0, self.iv[b].1))
    }
}

/// Chops one row block into column-chunk regions with input ≤ `budget`.
/// Returns `None` when even a 1-column region exceeds the budget.
fn cover_block(
    g: &CandGrid,
    r0: usize,
    r1: usize,
    budget: u64,
    out: Option<&mut Vec<(usize, usize, usize, usize)>>,
) -> Option<usize> {
    let Some((clo, chi)) = g.span(r0, r1) else {
        return Some(0); // no candidates in these rows: nothing to cover
    };
    let row_input = (r1 - r0 + 1) as u64 * g.row_unit;
    if budget < row_input + g.col_unit {
        return None;
    }
    let width_cap = ((budget - row_input) / g.col_unit.max(1)).max(1) as usize;
    let span = (chi - clo + 1) as usize;
    let n_regions = span.div_ceil(width_cap);
    if let Some(out) = out {
        let mut c = clo as usize;
        while c <= chi as usize {
            let c1 = (c + width_cap - 1).min(chi as usize);
            out.push((r0, r1, c, c1));
            c = c1 + 1;
        }
    }
    Some(n_regions)
}

/// One full cover at input budget `T`: row blocks chosen by the
/// cells-per-region score. Returns the region rectangles (grid coords) or
/// `None` if some block is uncoverable at this budget.
fn cover(g: &CandGrid, n_rows: usize, budget: u64) -> Option<Vec<(usize, usize, usize, usize)>> {
    let mut regions = Vec::new();
    let mut r = 0usize;
    while r < n_rows {
        if g.iv[r].0 > g.iv[r].1 {
            r += 1; // empty row: skip without spending a region
            continue;
        }
        let mut best: Option<(f64, usize)> = None; // (score, h)
        let mut stale = 0;
        for h in 1.. {
            let r1 = r + h - 1;
            if r1 >= n_rows {
                break;
            }
            let Some(n_regions) = cover_block(g, r, r1, budget, None) else {
                break; // taller blocks only cost more input
            };
            let cells = g.cells_in_rows(r, r1);
            let score = cells as f64 / n_regions.max(1) as f64;
            if best.map(|(s, _)| score > s).unwrap_or(true) {
                best = Some((score, h));
                stale = 0;
            } else {
                stale += 1;
                if stale >= 8 {
                    break; // the score has clearly peaked
                }
            }
        }
        let (_, h) = best?;
        cover_block(g, r, r + h - 1, budget, Some(&mut regions))
            .expect("feasibility verified during scoring");
        r += h;
    }
    Some(regions)
}

/// Builds the CSI scheme over the two key columns.
pub fn build_csi(
    r1_keys: &[Key],
    r2_keys: &[Key],
    cond: &JoinCondition,
    j: usize,
    params: &CsiParams,
) -> PartitionScheme {
    // Input statistics: equi-depth histograms with p buckets each. The
    // required sample for p buckets can exceed small test relations; it is
    // then the relation itself (exact histogram — generous to CSI).
    let (row_hist, si1) = EquiDepthHistogram::from_relation(r1_keys, params.p, params.seed ^ 0xC51);
    let (col_hist, si2) = EquiDepthHistogram::from_relation(r2_keys, params.p, params.seed ^ 0xC52);
    let (n1, n2) = (r1_keys.len() as u64, r2_keys.len() as u64);
    let spans = (span_of(r1_keys), span_of(r2_keys));
    let hists = (row_hist, col_hist);
    csi_over(hists, spans, n1, n2, si1.max(si2), cond, j, params.p)
}

/// The keys a column holds, its least to its greatest, in one pass (an
/// empty column's is empty: `Key::MAX..=Key::MIN`).
fn span_of(keys: &[Key]) -> KeyRange {
    let hull = |s: KeyRange, &k: &Key| KeyRange::new(s.lo.min(k), s.hi.max(k));
    keys.iter().fold(KeyRange::new(Key::MAX, Key::MIN), hull)
}

/// [`build_csi`] from the two sides' statistics: the histograms are the
/// exact quantiles of the censuses, the bucket sizes those of the relations
/// the censuses stand for.
pub fn build_csi_from_stats(
    s1: SideStats<'_>,
    s2: SideStats<'_>,
    cond: &JoinCondition,
    j: usize,
    params: &CsiParams,
) -> PartitionScheme {
    let row_hist = EquiDepthHistogram::from_counts(s1.census, params.p);
    let col_hist = EquiDepthHistogram::from_counts(s2.census, params.p);
    let si = s1.census.total().max(s2.census.total()) as usize;
    let (hists, spans) = ((row_hist, col_hist), (s1.span(), s2.span()));
    csi_over(hists, spans, s1.tuples, s2.tuples, si, cond, j, params.p)
}

/// The M-Bucket-I cover over two input histograms; candidacy is read on
/// the keys each side holds (`spans`, see [`candidate_intervals`]).
#[allow(clippy::too_many_arguments)] // the two sides' statistics, used once each
fn csi_over(
    (row_hist, col_hist): (EquiDepthHistogram, EquiDepthHistogram),
    spans: (KeyRange, KeyRange),
    n1: u64,
    n2: u64,
    si: usize,
    cond: &JoinCondition,
    j: usize,
    p: usize,
) -> PartitionScheme {
    cond.validate();
    let hist_start = Instant::now();
    let p1 = row_hist.num_buckets();
    let p2 = col_hist.num_buckets();
    let iv = candidate_intervals(&row_hist, &col_hist, cond, spans);
    let g = CandGrid::new(iv, (n1 / p1 as u64).max(1), (n2 / p2 as u64).max(1));

    // Binary search the input budget T down to the smallest that still fits
    // in J regions.
    let mut lo = g.row_unit + g.col_unit;
    let mut hi = n1 + n2;
    let feasible = |t: u64| {
        cover(&g, p1, t)
            .map(|regs| regs.len() <= j)
            .unwrap_or(false)
    };
    if !feasible(hi) {
        // One region per row block can still exceed J for extreme p/J; widen
        // until feasible (T beyond n1+n2 changes nothing, so fall back to a
        // single full-span block by relaxing the budget).
        hi = (n1 + n2) * 4;
    }
    let mut best = cover(&g, p1, hi).unwrap_or_default();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            best = cover(&g, p1, mid).expect("feasible budget");
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let rects = best;
    let hist_secs = hist_start.elapsed().as_secs_f64();

    // Translate to key ranges; CSI has no output estimates by design.
    let bucket_hi = |h: &EquiDepthHistogram, i: usize| h.bucket_range(i).1;
    let regions: Vec<Region> = rects
        .iter()
        .map(|&(r0, r1, c0, c1)| Region {
            rows: KeyRange::new(row_hist.bucket_range(r0).0, bucket_hi(&row_hist, r1)),
            cols: KeyRange::new(col_hist.bucket_range(c0).0, bucket_hi(&col_hist, c1)),
            est_input: (r1 - r0 + 1) as u64 * g.row_unit + (c1 - c0 + 1) as u64 * g.col_unit,
            est_output: 0,
        })
        .collect();

    let router = GridRouter::new(
        row_hist.bounds().to_vec(),
        col_hist.bounds().to_vec(),
        &rects,
    );

    PartitionScheme {
        kind: SchemeKind::Csi,
        regions,
        router: Router::Grid(router),
        build: BuildInfo {
            ns: p,
            si,
            hist_secs,
            // Two MapReduce passes over both inputs (§VI-D: CSI needs one
            // more pass than CSIO's shared scan).
            stats_scan_tuples: 2 * (n1 + n2),
            ..Default::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn keys(n: usize, f: impl Fn(i64) -> i64) -> Vec<Key> {
        (0..n as i64).map(f).collect()
    }

    #[test]
    fn covers_all_candidate_cells() {
        let r1 = keys(5000, |i| (i * 7) % 5000);
        let r2 = keys(5000, |i| (i * 3) % 5000);
        let cond = JoinCondition::Band { beta: 4 };
        let s = build_csi(&r1, &r2, &cond, 8, &CsiParams { p: 64, seed: 1 });
        assert!(s.num_regions() <= 8);
        assert!(s.num_regions() >= 2);

        // Route every matching pair: it must meet in >= 1 common region
        // (rectangular regions may replicate boundary tuples, but candidate
        // coverage means no pair is lost).
        let mut rng = SmallRng::seed_from_u64(0);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..2000 {
            let k1 = r1[rng.gen_range(0..r1.len())];
            let jr = cond.joinable_range(k1);
            for k2 in [jr.lo, k1, jr.hi] {
                a.clear();
                b.clear();
                s.router.route_r1(k1, &mut rng, &mut a);
                s.router.route_r2(k2, &mut rng, &mut b);
                let both: Vec<_> = a.iter().filter(|x| b.contains(x)).collect();
                assert_eq!(
                    both.len(),
                    1,
                    "pair ({k1},{k2}) met in {} regions",
                    both.len()
                );
            }
        }
    }

    #[test]
    fn input_balanced_regions() {
        let r1 = keys(20_000, |i| i);
        let r2 = keys(20_000, |i| i);
        let cond = JoinCondition::Band { beta: 2 };
        let s = build_csi(&r1, &r2, &cond, 8, &CsiParams { p: 128, seed: 2 });
        let max_in = s.regions.iter().map(|r| r.est_input).max().unwrap();
        let total = 40_000u64;
        // Perfect balance would be ~total/J plus replication; allow 3x.
        assert!(max_in <= 3 * total / 8, "max input {max_in}");
    }

    #[test]
    fn equi_join_skips_empty_space() {
        // Two disjoint key populations: most of the matrix is non-candidate;
        // regions must concentrate on the diagonal.
        let r1 = keys(4000, |i| i * 10);
        let r2 = keys(4000, |i| i * 10);
        let cond = JoinCondition::Equi;
        let s = build_csi(&r1, &r2, &cond, 4, &CsiParams { p: 64, seed: 3 });
        for r in &s.regions {
            // Diagonal-ish regions: row and column ranges must overlap.
            assert!(
                r.rows.intersects(&r.cols),
                "equi-join region off the diagonal: {r:?}"
            );
        }
    }

    #[test]
    fn single_machine_gets_one_or_few_regions() {
        let r1 = keys(1000, |i| i);
        let r2 = keys(1000, |i| i);
        let cond = JoinCondition::Band { beta: 1 };
        let s = build_csi(&r1, &r2, &cond, 1, &CsiParams { p: 32, seed: 4 });
        assert_eq!(s.num_regions(), 1);
    }
}
