//! Stage 1 — sampling: the sparse sample matrix `MS` (§III-A, §IV-A).
//!
//! `MS` preserves *both* marginals of the weight distribution:
//! * the **input** distribution through approximate equi-depth histograms
//!   (`ns` buckets per relation; boundaries form the `ns × ns` grid), and
//! * the **output** distribution through a uniform random sample of the join
//!   output obtained by Stream-Sample, which also yields the exact output
//!   size `m`.
//!
//! This is what gives the region-weight proximity property `w(rs) ≈ w(r)`:
//! multi-attribute histograms track only frequency and cannot provide it.
//!
//! Each relation is counted once, into its census ([`KeyedCounts`]); both
//! histograms, their per-bucket tuple counts, `d2equi`, every `d2` and the
//! Appendix A5 rebuilds read the two censuses — and nothing else, so a side
//! can as well be a census that was never counted from resident tuples
//! ([`SideStats`]): the propagated census of a plan's intermediate, or a
//! sample weighed up to the relation it was drawn from.

use std::thread;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ewh_sampling::{ks, stream_sample, EquiDepthHistogram, KeyedCounts};

use crate::{HistogramParams, JoinCondition, Key, KeyRange};

/// The sparse sample matrix.
#[derive(Clone, Debug)]
pub struct SampleMatrix {
    pub row_hist: EquiDepthHistogram,
    pub col_hist: EquiDepthHistogram,
    /// Estimated tuples per row bucket: `n1/ns` by the equi-depth property
    /// for a resident relation, counted off the census otherwise (see
    /// [`SideStats::counted`]).
    pub row_tuples: Vec<u64>,
    pub col_tuples: Vec<u64>,
    /// Output-sample hits: one `(row bucket, col bucket)` per sampled output
    /// tuple.
    pub points: Vec<(u32, u32)>,
    /// The keys each side holds ([`SideStats::span`]): candidacy is read
    /// on them, while the histograms' outer bounds stay open for routing.
    pub row_span: KeyRange,
    pub col_span: KeyRange,
    /// Candidate column interval per row bucket (inclusive; staircase).
    pub cand: Vec<(u32, u32)>,
    /// Exact join output size (from Stream-Sample).
    pub m: u64,
    /// Output sample size actually drawn.
    pub so: usize,
    /// Input sample size per relation actually drawn (diagnostics/cost).
    pub si: usize,
    /// Number of candidate MS cells.
    pub nsc: u64,
    /// Distinct R2 keys (size of `d2equi`, for the stats-scan cost model).
    pub d2equi_distinct: u64,
}

impl SampleMatrix {
    pub fn n_rows(&self) -> usize {
        self.row_hist.num_buckets()
    }

    pub fn n_cols(&self) -> usize {
        self.col_hist.num_buckets()
    }

    /// Maximum cell weight σ in milli-units — the quantity Lemma 3.1 bounds
    /// by half the optimal region weight.
    pub fn max_cell_weight(&self, cost: &crate::CostModel) -> u64 {
        let mut per_cell = std::collections::HashMap::new();
        for &(r, c) in &self.points {
            *per_cell.entry((r, c)).or_insert(0u64) += 1;
        }
        let mut max = 0;
        for (&(r, c), &cnt) in &per_cell {
            let out = scale_count(cnt, self.m, self.so);
            let w = cost.weight(
                self.row_tuples[r as usize] + self.col_tuples[c as usize],
                out,
            );
            max = max.max(w);
        }
        // Cells without sample hits still carry input weight.
        let max_in = self
            .row_tuples
            .iter()
            .max()
            .copied()
            .unwrap_or(0)
            .saturating_add(self.col_tuples.iter().max().copied().unwrap_or(0));
        max.max(cost.weight(max_in, 0))
    }
}

/// Scales a sample count to estimated output tuples: `count · m / so`.
pub(crate) fn scale_count(count: u64, m: u64, so: usize) -> u64 {
    if so == 0 {
        return 0;
    }
    ((count as u128 * m as u128) / so as u128) as u64
}

/// What a scheme build knows about one input: its key census and the
/// number of tuples the census stands for.
#[derive(Clone, Copy, Debug)]
pub struct SideStats<'a> {
    pub census: &'a KeyedCounts,
    /// The census's own total for a relation (or the exact census of a
    /// stream); the relation's cardinality for the census of a sample of it,
    /// which every count read off the census is then scaled up to.
    pub tuples: u64,
    /// Whether a histogram bucket's tuples are counted off the census or
    /// taken to be `n/ns`, the equi-depth property. Counting is exact; a
    /// resident relation keeps the paper's `n/ns` (the two differ wherever
    /// a key outweighs a bucket, and the recorded benchmark numbers of the
    /// single-stage workloads are of schemes built with `n/ns`).
    pub counted: bool,
}

impl<'a> SideStats<'a> {
    /// A resident relation, by its census.
    pub fn relation(census: &'a KeyedCounts) -> Self {
        SideStats {
            census,
            tuples: census.total(),
            counted: false,
        }
    }

    /// A census standing for `tuples` tuples nobody holds: the propagated
    /// census of a plan's intermediate (`tuples` its total), or the census
    /// of a sample of a larger relation.
    pub fn counted(census: &'a KeyedCounts, tuples: u64) -> Self {
        SideStats {
            census,
            tuples,
            counted: true,
        }
    }

    /// The keys the side holds, the census's first to last, when the
    /// census stands for the whole side (`census.total() == tuples`: a
    /// relation, or the exact census of a stream); empty for an empty side.
    /// The census of a sample may miss keys of its relation on either end,
    /// so its span is the whole key space.
    pub fn span(&self) -> KeyRange {
        if self.census.total() != self.tuples {
            return KeyRange::full();
        }
        let keys = self.census.keys();
        match (keys.first(), keys.last()) {
            (Some(&first), Some(&last)) => KeyRange::new(first, last),
            _ => KeyRange::empty(),
        }
    }

    /// `count` census tuples in relation tuples.
    fn scale(&self, count: u64) -> u64 {
        match self.census.total() {
            total if total == self.tuples || total == 0 => count,
            total => (count as u128 * self.tuples as u128 / total as u128) as u64,
        }
    }

    /// Tuples per bucket of `hist`: `distribute`d evenly, or counted — a
    /// single-key bucket holding half a stream is not `n/ns` tuples.
    fn bucket_tuples(&self, hist: &EquiDepthHistogram) -> Vec<u64> {
        if !self.counted {
            return distribute(self.tuples, hist.num_buckets());
        }
        (0..hist.num_buckets())
            .map(|b| {
                let (lo, hi) = hist.bucket_range(b);
                self.scale(self.census.range_count(lo, hi))
            })
            .collect()
    }
}

/// Splits `total` into `parts` near-equal integers summing to `total`.
fn distribute(total: u64, parts: usize) -> Vec<u64> {
    let parts = parts.max(1);
    let base = total / parts as u64;
    let extra = (total % parts as u64) as usize;
    (0..parts).map(|i| base + (i < extra) as u64).collect()
}

/// Splits the listed buckets at the median of the sampled keys they contain
/// (Appendix A5 case (ii): "we divide only the row and/or column of the
/// overweighted cell(s)"). A bucket whose samples all share one key is
/// irreducible and left alone.
fn split_buckets(
    hist: &EquiDepthHistogram,
    buckets: impl Iterator<Item = usize>,
    sample_keys: &[Key],
) -> EquiDepthHistogram {
    let mut interior: Vec<Key> = hist.bounds()[1..hist.bounds().len() - 1].to_vec();
    for b in buckets {
        let mut ks: Vec<Key> = sample_keys
            .iter()
            .copied()
            .filter(|&k| hist.bucket_of(k) == b)
            .collect();
        if ks.is_empty() {
            continue;
        }
        ks.sort_unstable();
        let (first, last) = (ks[0], ks[ks.len() - 1]);
        if first == last {
            continue; // single hot key: irreducible
        }
        let median = ks[ks.len() / 2];
        // The new boundary must separate something: fall back to the first
        // key above `first` when the median collapses onto it.
        let boundary = if median > first {
            median
        } else {
            ks.iter().copied().find(|&k| k > first).unwrap_or(last)
        };
        interior.push(boundary);
    }
    interior.sort_unstable();
    interior.dedup();
    EquiDepthHistogram::from_bounds(&interior)
}

/// Candidate column interval of each row bucket via the exact O(1)
/// boundary-only candidacy check; two binary searches per row. The check
/// reads the keys a bucket holds: a row bucket clamped to `R1`'s span
/// `s1`, its joinable span clamped to `R2`'s `s2` — before the lookup, since
/// `bucket_of` sends a key past the last bound into the last bucket. The
/// outer buckets' open bounds would otherwise make every row beyond `R2`'s
/// keys a candidate against its last column.
pub(crate) fn candidate_intervals(
    row_hist: &EquiDepthHistogram,
    col_hist: &EquiDepthHistogram,
    cond: &JoinCondition,
    (s1, s2): (KeyRange, KeyRange),
) -> Vec<(u32, u32)> {
    (0..row_hist.num_buckets())
        .map(|i| {
            let (rlo, rhi) = row_hist.bucket_range(i);
            let rows = KeyRange::new(rlo, rhi).intersect(&s1);
            let KeyRange { lo, hi } = cond.joinable_span(&rows).intersect(&s2);
            if lo > hi {
                (1u32, 0u32)
            } else {
                (col_hist.bucket_of(lo) as u32, col_hist.bucket_of(hi) as u32)
            }
        })
        .collect()
}

/// Number of candidate cells of a staircase of column intervals.
fn candidate_cells(cand: &[(u32, u32)]) -> u64 {
    cand.iter()
        .map(|&(lo, hi)| if lo <= hi { (hi - lo + 1) as u64 } else { 0 })
        .sum()
}

/// Stage 1 driver: builds `MS` from the raw key columns.
pub fn build_sample_matrix(
    r1_keys: &[Key],
    r2_keys: &[Key],
    cond: &JoinCondition,
    params: &HistogramParams,
) -> SampleMatrix {
    let (d1, d2equi) = censuses(r1_keys, r2_keys, params.threads, KeyedCounts::census);
    sample_matrix_from_stats(
        SideStats::relation(&d1),
        SideStats::relation(&d2equi),
        cond,
        params,
    )
}

/// The one census each relation gets, the two sides side by side: `census`
/// of each side, the second on a thread of its own from `threads >= 2`. A
/// side is a key column ([`KeyedCounts::census`]) or a relation whose
/// `census` reads its keys on that side's thread
/// ([`KeyedCounts::census_of`]).
pub fn censuses<T: Sync>(
    r1: &[T],
    r2: &[T],
    threads: usize,
    census: impl Fn(&[T]) -> KeyedCounts + Sync,
) -> (KeyedCounts, KeyedCounts) {
    if threads >= 2 {
        thread::scope(|s| {
            let d2equi = s.spawn(|| census(r2));
            let d1 = census(r1);
            (d1, d2equi.join().expect("census worker panicked"))
        })
    } else {
        (census(r1), census(r2))
    }
}

/// Stage 1 from the two sides' statistics.
pub fn sample_matrix_from_stats(
    s1: SideStats<'_>,
    s2: SideStats<'_>,
    cond: &JoinCondition,
    params: &HistogramParams,
) -> SampleMatrix {
    cond.validate();
    let (d1, d2equi) = (s1.census, s2.census);
    let (n1, n2) = (s1.tuples, s2.tuples);
    let spans = (s1.span(), s2.span());
    let n = n1.max(n2);
    let mut ns = params
        .ns_override
        .unwrap_or_else(|| HistogramParams::recommended_ns(n, params.j))
        .max(1);

    // The input sample a histogram of `ns` buckets asks for reaches the
    // census long before the census is worth sampling: exact quantiles.
    let si = |side: &SideStats<'_>, ns| {
        EquiDepthHistogram::required_sample_size(side.tuples, ns, 0.5, 0.01)
            .min(side.census.total() as usize)
    };
    let histograms = |ns: usize| {
        (
            EquiDepthHistogram::from_counts(d1, ns),
            EquiDepthHistogram::from_counts(d2equi, ns),
            si(&s1, ns).max(si(&s2, ns)),
        )
    };
    let sample_output = |so: usize, seed: u64| {
        let rng = &mut SmallRng::seed_from_u64(seed);
        stream_sample(d1, d2equi, |k| cond.joinable_bounds(k), so, rng)
    };
    let output_sample_size = |nsc: u64| {
        params
            .so_override
            .unwrap_or_else(|| ks::output_sample_size(nsc as usize))
    };

    let (mut row_hist, mut col_hist, si) = histograms(ns);
    let mut cand = candidate_intervals(&row_hist, &col_hist, cond, spans);
    let mut nsc = candidate_cells(&cand);
    let mut so = output_sample_size(nsc);
    let sample = sample_output(so, params.seed ^ 0x33);
    // Pairs of the two censuses, in pairs of the two relations.
    let m = s2.scale(s1.scale(sample.m));
    let mut pairs = sample.pairs;

    // Appendix A5 adjustments once m is known. Both rebuild the histograms at
    // a different ns; the output sample only needs re-drawing when it must
    // grow.
    if params.ns_override.is_none() && m > 0 {
        let mut target_ns = ns;
        if m < n {
            // Case (i), m = Θ(n): (n/ns)² ≤ m/(2J) requires
            // ns ≥ n·sqrt(2J/m); cap the growth to keep the coarsening input
            // bounded (case (ii) below handles what the cap leaves over).
            let needed = (n as f64 * (2.0 * params.j as f64 / m as f64).sqrt()).ceil() as usize;
            target_ns = needed.min(ns * 4).min(n as usize).max(ns);
        } else if params.rho_b_opt {
            let rho_b = m as f64 / n as f64;
            if rho_b > 1.0 {
                let reduced = (ns as f64 / rho_b.sqrt()).ceil() as usize;
                target_ns = reduced.max(2 * params.j).min(ns);
            }
        }
        if target_ns != ns {
            ns = target_ns;
            (row_hist, col_hist, _) = histograms(ns);
            cand = candidate_intervals(&row_hist, &col_hist, cond, spans);
            nsc = candidate_cells(&cand);
            let new_so = output_sample_size(nsc);
            if new_so > so {
                so = new_so;
                pairs = sample_output(so, params.seed ^ 0x44).pairs;
            }
        }
    }

    // Appendix A5 case (ii), m << n: rather than a huge global ns, split
    // only the rows/columns of overweighted cells and reassign the affected
    // output samples — each split halves the key range of the offending
    // bucket (the best available move without intra-bucket statistics).
    if m > 0 && m < n / 2 {
        let cell_cap = (so as u64 / (2 * params.j as u64)).max(1);
        for _round in 0..3 {
            let mut counts: std::collections::HashMap<(u32, u32), u64> =
                std::collections::HashMap::new();
            for &(k1, k2) in &pairs {
                *counts
                    .entry((row_hist.bucket_of(k1) as u32, col_hist.bucket_of(k2) as u32))
                    .or_insert(0) += 1;
            }
            let overweight: Vec<(u32, u32)> = counts
                .iter()
                .filter(|&(_, &c)| c > cell_cap)
                .map(|(&cell, _)| cell)
                .collect();
            if overweight.is_empty() {
                break;
            }
            let k1s: Vec<Key> = pairs.iter().map(|&(k1, _)| k1).collect();
            let k2s: Vec<Key> = pairs.iter().map(|&(_, k2)| k2).collect();
            row_hist = split_buckets(&row_hist, overweight.iter().map(|&(r, _)| r as usize), &k1s);
            col_hist = split_buckets(&col_hist, overweight.iter().map(|&(_, c)| c as usize), &k2s);
            cand = candidate_intervals(&row_hist, &col_hist, cond, spans);
        }
        nsc = candidate_cells(&cand);
    }

    let points: Vec<(u32, u32)> = pairs
        .iter()
        .map(|&(k1, k2)| (row_hist.bucket_of(k1) as u32, col_hist.bucket_of(k2) as u32))
        .collect();

    SampleMatrix {
        row_tuples: s1.bucket_tuples(&row_hist),
        col_tuples: s2.bucket_tuples(&col_hist),
        row_hist,
        col_hist,
        row_span: spans.0,
        col_span: spans.1,
        points,
        cand,
        m,
        so: if m == 0 { 0 } else { so },
        si,
        nsc,
        d2equi_distinct: d2equi.num_distinct() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;

    fn uniform_keys(n: usize, stride: i64) -> Vec<Key> {
        (0..n as i64).map(|i| i * stride % (n as i64)).collect()
    }

    #[test]
    fn ms_preserves_exact_m() {
        let r1 = uniform_keys(5000, 7);
        let r2 = uniform_keys(5000, 11);
        let cond = JoinCondition::Band { beta: 2 };
        let params = HistogramParams {
            j: 8,
            threads: 2,
            ..Default::default()
        };
        let ms = build_sample_matrix(&r1, &r2, &cond, &params);
        // Exact m by brute d2 sum.
        let d2equi = ewh_sampling::KeyedCounts::census(&r2);
        let expect: u64 = r1
            .iter()
            .map(|&a| {
                let jr = cond.joinable_range(a);
                d2equi.range_count(jr.lo, jr.hi)
            })
            .sum();
        assert_eq!(ms.m, expect);
        assert_eq!(ms.points.len(), ms.so);
        assert!(ms.so >= 1063);
    }

    #[test]
    fn row_tuples_sum_to_relation_sizes() {
        let r1 = uniform_keys(3001, 3);
        let r2 = uniform_keys(2000, 5);
        let cond = JoinCondition::Band { beta: 1 };
        let params = HistogramParams {
            j: 4,
            ..Default::default()
        };
        let ms = build_sample_matrix(&r1, &r2, &cond, &params);
        assert_eq!(ms.row_tuples.iter().sum::<u64>(), 3001);
        assert_eq!(ms.col_tuples.iter().sum::<u64>(), 2000);
    }

    #[test]
    fn a_sample_is_weighed_up_to_the_relation_it_stands_for() {
        // The same censuses, the probe side standing for ten times its own
        // size: same histograms and output sample, ten times the column
        // tuples and ten times m — a sample is not the relation.
        let r1 = uniform_keys(3000, 7);
        let r2: Vec<Key> = (0..400).map(|i| (i * i) % 3000).collect();
        let cond = JoinCondition::Band { beta: 1 };
        let params = HistogramParams {
            j: 4,
            ns_override: Some(40),
            ..Default::default()
        };
        let (d1, d2) = censuses(&r1, &r2, 1, KeyedCounts::census);
        let build = |tuples| {
            let s2 = SideStats::counted(&d2, tuples);
            sample_matrix_from_stats(SideStats::relation(&d1), s2, &cond, &params)
        };
        let (own, tenfold) = (build(400), build(4000));
        assert_eq!(own.col_tuples.iter().sum::<u64>(), 400);
        let scaled: Vec<u64> = own.col_tuples.iter().map(|t| 10 * t).collect();
        assert_eq!(tenfold.col_tuples, scaled);
        assert_eq!(tenfold.row_tuples, own.row_tuples);
        assert_eq!(tenfold.m, 10 * own.m);
        assert_eq!(tenfold.points, own.points);
        // Counted buckets are what the census holds, not n/ns: the squares
        // mod 3000 are far from uniform.
        let flat = build_sample_matrix(&r1, &r2, &cond, &params);
        assert_eq!(flat.col_hist.bounds(), own.col_hist.bounds());
        assert_ne!(flat.col_tuples, own.col_tuples);
        for (b, &t) in own.col_tuples.iter().enumerate() {
            let (lo, hi) = own.col_hist.bucket_range(b);
            assert_eq!(t, d2.range_count(lo, hi));
        }
    }

    #[test]
    fn candidate_intervals_form_a_staircase() {
        let r1 = uniform_keys(4000, 13);
        let r2 = uniform_keys(4000, 17);
        let cond = JoinCondition::Band { beta: 5 };
        let params = HistogramParams {
            j: 8,
            ..Default::default()
        };
        let ms = build_sample_matrix(&r1, &r2, &cond, &params);
        let mut prev = (0u32, 0u32);
        for &(lo, hi) in &ms.cand {
            assert!(lo <= hi, "band join: every row bucket has candidates");
            assert!(lo >= prev.0 && hi >= prev.1, "staircase violated");
            prev = (lo, hi);
        }
        // Every output point must land inside its row's candidate interval.
        for &(r, c) in &ms.points {
            let (lo, hi) = ms.cand[r as usize];
            assert!(
                lo <= c && c <= hi,
                "point ({r},{c}) outside interval [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn empty_join_yields_zero_m_and_no_points() {
        let r1 = vec![0i64; 100];
        let r2 = vec![1_000_000i64; 100];
        let cond = JoinCondition::Band { beta: 3 };
        let params = HistogramParams {
            j: 4,
            ..Default::default()
        };
        let ms = build_sample_matrix(&r1, &r2, &cond, &params);
        assert_eq!(ms.m, 0);
        assert!(ms.points.is_empty());
        assert_eq!(ms.so, 0);
    }

    #[test]
    fn lemma_3_1_sigma_below_half_wopt() {
        // σ (max MS cell weight) ≤ wOPT/2 where wOPT = w(M)/J with
        // input(M) = 2n and output(M) = m (the no-replication lower bound).
        let n = 20_000usize;
        let r1 = uniform_keys(n, 7);
        let r2 = uniform_keys(n, 11);
        let cond = JoinCondition::Band { beta: 3 };
        let cost = CostModel::band();
        for j in [4usize, 8, 16] {
            let params = HistogramParams {
                j,
                ..Default::default()
            };
            let ms = build_sample_matrix(&r1, &r2, &cond, &params);
            assert!(ms.m >= n as u64, "premise of Lemma 3.1 (m >= n)");
            let sigma = ms.max_cell_weight(&cost);
            let w_opt = cost.weight(2 * n as u64, ms.m) / j as u64;
            assert!(
                sigma <= w_opt / 2 + w_opt / 10, // small slack for sampling noise
                "j={j}: sigma={sigma} > wOPT/2={}",
                w_opt / 2
            );
        }
    }

    #[test]
    fn a5_case_ii_splits_overweight_cells() {
        // A sparse join (m << n) whose output concentrates in one splittable
        // key region: rows 0..200 of R1 join rows 0..200 of R2, everything
        // else never matches. After the case-(ii) splitting, no sample cell
        // may hold more than so/(2J) hits unless it is single-key atomic.
        let n = 20_000usize;
        let mut r1: Vec<Key> = (0..200).collect();
        r1.extend((200..n as i64).map(|i| i * 1_000));
        let mut r2: Vec<Key> = (0..200).collect();
        r2.extend((200..n as i64).map(|i| i * 1_000 + 500));
        let cond = JoinCondition::Band { beta: 2 };
        let params = HistogramParams {
            j: 8,
            ..Default::default()
        };
        let ms = build_sample_matrix(&r1, &r2, &cond, &params);
        assert!(
            ms.m > 0 && ms.m < n as u64 / 2,
            "premise: sparse join (m = {})",
            ms.m
        );

        let cap = (ms.so as u64 / 16).max(1); // so / (2J)
        let mut counts = std::collections::HashMap::new();
        for &cell in &ms.points {
            *counts.entry(cell).or_insert(0u64) += 1;
        }
        let worst = counts.values().copied().max().unwrap();
        // Splitting cannot always reach the cap exactly (3 rounds, atomic
        // keys), but it must get within a small factor.
        assert!(worst <= 4 * cap, "worst cell {worst} vs cap {cap}");
    }

    #[test]
    fn small_output_grows_ns() {
        // m << n triggers the Appendix A5 growth so cell frequencies stay
        // below m/(2J).
        let n = 8000usize;
        let r1: Vec<Key> = (0..n as i64).map(|i| i * 1000).collect();
        let r2: Vec<Key> = (0..n as i64).map(|i| i * 1000 + 500).collect();
        // Band 1000 wide in a keyspace of stride 1000: roughly 2 matches per
        // tuple... make it sparser: beta = 400 -> no matches except none.
        let cond = JoinCondition::Band { beta: 500 };
        let params = HistogramParams {
            j: 8,
            ..Default::default()
        };
        let ms = build_sample_matrix(&r1, &r2, &cond, &params);
        let base = HistogramParams::recommended_ns(n as u64, 8);
        if ms.m < n as u64 && ms.m > 0 {
            assert!(ms.n_rows() > base / 2, "ns should not shrink under small m");
        }
    }
}
