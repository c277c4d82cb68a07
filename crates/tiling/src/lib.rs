//! Rectangle tiling algorithms for join load balancing.
//!
//! This crate implements the computational-geometry substrate of the
//! equi-weight histogram construction from *Load Balancing and Skew
//! Resilience for Parallel Joins* (ICDE 2016):
//!
//! * [`Grid`] — a weighted `n × n` matrix with O(1) rectangle weight and
//!   candidate-count queries backed by prefix sums, plus minimal-candidate-
//!   rectangle shrinking (§III-C, Fig. 2c of the paper).
//! * [`bsp`] — the baseline Binary Space Partition tiling algorithm of
//!   Berman, DasGupta & Muthukrishnan (SODA 2002): an optimal *hierarchical*
//!   partitioning, within a factor of 2 of an optimal arbitrary rectangular
//!   partitioning (Algorithm 1 of the paper).
//! * [`monotonic_bsp`] — the paper's novel MONOTONICBSP (Algorithm 2),
//!   which enumerates only minimal candidate rectangles (Lemma 3.4) and
//!   thereby reduces BSP's `O(nc⁴)` space / `O(nc⁵)` time to `O(ncc²)`
//!   states and `O(ncc² · nc)` time for monotonic join matrices (the paper's
//!   `log nc` shrink per splitter is `O(1)` here).
//! * [`partition_max_weight`] — regionalization: a search over
//!   the maximum region weight δ (BSP solves the dual problem — given δ,
//!   minimize the number of regions — so we search the rectangle weights for
//!   the smallest δ that fits in the available `J` regions), started where
//!   the count at the δ floor predicts the answer. A single cell
//!   heavier than δ is charged `⌈w/δ⌉` regions ([`region_shares`]) instead of
//!   making δ infeasible.
//! * [`coarsen`] — the grid-partitioning (RTILE, MAX-WEIGHT metric)
//!   coarsening stage after Muthukrishnan & Suel (J. Algorithms 2005),
//!   implemented as alternating exact 1-D re-optimization, with the
//!   *MonotonicCoarsening* shortcut that skips non-candidate cells (§III-B).
//!
//! Weights are unsigned integers ("milli work units" in the parent crates) so
//! all binary searches are exact and reproducible.

mod bsp;
mod coarsen;
mod grid;
mod monotonic_bsp;
mod partition;
mod rect;

pub use bsp::{bsp, BspSolver};
pub use coarsen::{
    coarsen, grid_cell_weights, grid_max_cell_weight, CoarsenConfig, SparseGrid, SparsePoint,
};
pub use grid::Grid;
pub use monotonic_bsp::{monotonic_bsp, MonotonicBspSolver};
pub use partition::{
    partition_max_weight, region_shares, validate_partition, Partition, PartitionError, TilingAlgo,
};
pub use rect::Rect;

/// Sentinel region count for "the charge overflowed" (a single cell a
/// quarter of `u32::MAX` times heavier than δ). Saturating arithmetic keeps
/// DP sums involving this value above any real region count.
pub(crate) const INFEASIBLE: u32 = u32::MAX / 4;
