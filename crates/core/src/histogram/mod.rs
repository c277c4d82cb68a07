//! The three-stage equi-weight histogram algorithm (§III).
//!
//! ```text
//!  input/output samples ──► sampling ──► MS (ns × ns, sparse)
//!                                          │ coarsening
//!                                          ▼
//!                                        MC (nc × nc, nc = 2J)
//!                                          │ regionalization (binary search
//!                                          ▼  over δ + MONOTONICBSP)
//!                                        MH: ≤ J equi-weight regions
//! ```
//!
//! Candidacy (§II-B) is read on the keys each side holds. The histograms'
//! outer buckets are open (`Key::MIN` / `Key::MAX`) so that every key routes
//! to a line, but a side counted whole (a relation, or a stream's exact
//! census) also knows its first and last key, its *span*
//! ([`SideStats::span`]), and both the fine staircase and the coarse cells
//! are tested on ranges clamped to the two spans. A coarse row (column) with
//! no candidate cell then gets no region, and its tuples are routed nowhere:
//! they could pair with nothing. A sample's census keeps the whole key space
//! as its span, since the relation it stands for may hold keys past it.
//!
//! Each stage shrinks the next stage's input while the per-cell weights grow,
//! so later stages can afford more precise (and more expensive per cell)
//! algorithms — the design that makes the whole chain `O(n)` (Theorem 3.1).
//! As built here: one census count per relation plus `O(n + so log n)` for
//! stage 1, and for stage 3 one `O(splitters)` table build plus at most
//! `⌈log₂(δ candidates)⌉ + 2` count-only probes.

mod coarsen;
mod regionalize;
mod sample_matrix;

pub use coarsen::{coarsen_sample_matrix, CoarsenedMatrix};
pub use regionalize::{regionalize, regionalize_with_threads, Regionalization};
pub(crate) use sample_matrix::candidate_intervals;
pub use sample_matrix::{
    build_sample_matrix, censuses, sample_matrix_from_stats, SampleMatrix, SideStats,
};

/// Tunables of the histogram pipeline. Defaults follow the paper; overrides
/// exist for the ablation benches (`nc = J` vs `2J` vs `4J`, `ns` vs the
/// `sqrt(2nJ)` rule, baseline BSP vs MONOTONICBSP, ...).
#[derive(Clone, Copy, Debug)]
pub struct HistogramParams {
    /// Number of regions to produce (= machines, or more for heterogeneous
    /// clusters per Appendix A5).
    pub j: usize,
    /// Sample matrix side; `None` = the Lemma 3.1 rule `ns = sqrt(2nJ)`.
    pub ns_override: Option<usize>,
    /// Coarse matrix side as a multiple of `j` (§III-B picks 2).
    pub nc_factor: usize,
    /// Output sample size; `None` = `max(1063, 2·nsc)` (Appendix A1).
    pub so_override: Option<usize>,
    /// Alternating improvement iterations in the coarsening stage.
    pub coarsen_iters: usize,
    /// Exploit monotonicity (MonotonicCoarsening + MONOTONICBSP). Disabling
    /// falls back to the generic algorithms (baseline ablation).
    pub monotonic: bool,
    /// Use the dense baseline BSP in regionalization instead of
    /// MONOTONICBSP (accuracy cross-check; only viable for small `nc`).
    pub baseline_bsp: bool,
    /// Apply the Appendix A5 `ns = sqrt(2nJ/ρB)` reduction when the join
    /// turns out to produce `m > n`.
    pub rho_b_opt: bool,
    /// RNG seed (all sampling is deterministic given the seed).
    pub seed: u64,
    /// Threads of the build: at 2 or more the two relations' censuses are
    /// counted side by side, and MONOTONICBSP's split table is filled in two
    /// halves. Neither changes a result, so the sample and the scheme do not
    /// depend on it.
    pub threads: usize,
}

impl Default for HistogramParams {
    fn default() -> Self {
        HistogramParams {
            j: 4,
            ns_override: None,
            nc_factor: 2,
            so_override: None,
            coarsen_iters: 4,
            monotonic: true,
            baseline_bsp: false,
            rho_b_opt: false,
            seed: 0x5EED,
            threads: 2,
        }
    }
}

impl HistogramParams {
    /// The Lemma 3.1 sample-matrix size: the smallest `ns` such that the
    /// maximum `MS` cell weight is at most half the optimal maximum region
    /// weight, independently of join condition and key distribution
    /// (`ns = ⌈sqrt(2·n·J)⌉`, capped at `n`).
    pub fn recommended_ns(n: u64, j: usize) -> usize {
        let ns = ((2.0 * n as f64 * j as f64).sqrt()).ceil() as u64;
        ns.clamp(1, n.max(1)) as usize
    }

    /// `nc = nc_factor · j` (§III-D explains why 2J rather than J).
    pub fn nc(&self) -> usize {
        (self.nc_factor * self.j).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_ns_follows_the_rule() {
        // sqrt(2 * 1e6 * 32) = 8000.
        assert_eq!(HistogramParams::recommended_ns(1_000_000, 32), 8000);
        // Capped at n for tiny inputs.
        assert_eq!(HistogramParams::recommended_ns(10, 32), 10);
        assert_eq!(HistogramParams::recommended_ns(0, 4), 1);
    }

    #[test]
    fn nc_defaults_to_2j() {
        let p = HistogramParams {
            j: 16,
            ..Default::default()
        };
        assert_eq!(p.nc(), 32);
    }
}
