//! Sampling substrate for join load balancing.
//!
//! Everything §III-A / §IV-A of *Load Balancing and Skew Resilience for
//! Parallel Joins* (ICDE 2016) needs in order to build the sample matrix
//! `MS`:
//!
//! * [`bernoulli_sample`] — one-pass Bernoulli input sampling (Gemulla, Haas
//!   & Lehner, VLDBJ 2013) with geometric skipping.
//! * [`EquiDepthHistogram`] — approximate equi-depth histograms built from a
//!   uniform sample, with the sample-size bound of Chaudhuri, Motwani &
//!   Narasayya (SIGMOD 1998).
//! * [`KeyedCounts`] — a relation's *census*: sorted distinct join keys with
//!   multiplicities and prefix sums, counted in one kernel — run-length
//!   encoded when the keys arrive sorted, counted into slots over a dense
//!   key span, collected and sorted over a wide one. It is the paper's
//!   `d2equi` structure; its range queries implement the `d2` (joinable-set
//!   size) computation for any join condition with contiguous joinable
//!   ranges, and its prefix sums are the exact quantiles of the relation.
//! * [`stream_sample`] — the Stream-Sample algorithm of Chaudhuri, Motwani &
//!   Narasayya (SIGMOD 1999), extended from equi-joins to band/inequality
//!   joins: from the two censuses, one monotone sweep and a sorted-rank walk
//!   produce a uniform random sample of the join *output* without executing
//!   the join, plus the exact output size `m`. Its siblings
//!   [`join_census_r1`] / [`join_census_r2`] compute the exact key census
//!   of that output from the same two censuses — the statistics a chained
//!   plan's next operator is planned from.
//! * [`ks`] — Kolmogorov-Smirnov and χ² helpers used to size and validate the
//!   output sample (Appendix A1).

mod bernoulli;
mod equi_depth;
mod keyed;
pub mod ks;
mod stream_sample;

pub use bernoulli::{bernoulli_sample, bernoulli_sample_by};
pub use equi_depth::EquiDepthHistogram;
pub use keyed::KeyedCounts;
pub use stream_sample::{join_census_r1, join_census_r2, stream_sample, OutputSample};

/// Join keys are signed 64-bit integers throughout the workspace.
pub type Key = i64;
