//! The three operator partitioning schemes evaluated in the paper (§VI-A):
//! CI (1-Bucket), CSI (M-Bucket) and CSIO (our equi-weight histogram).

mod ci;
mod csi;
mod csio;
mod hash;

pub use ci::build_ci;
pub(crate) use ci::choose_shape;
pub use csi::{build_csi, build_csi_from_stats, CsiParams};
pub use csio::{build_csio, build_csio_from_stats};
pub use hash::{build_hash, build_hash_from_stats, HashParams};

use crate::{CostModel, Region, Router};

/// Which partitioning scheme an operator uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Content-insensitive 1-Bucket: random replication over a `a × b`
    /// region matrix. Output-optimal, input-oblivious.
    Ci,
    /// Content-sensitive M-Bucket: input-only equi-depth statistics.
    /// Input-optimal, JPS-susceptible.
    Csi,
    /// Content-sensitive with input *and* output statistics: the paper's
    /// equi-weight histogram scheme.
    Csio,
    /// Hash partitioning with PRPD-style heavy-hitter handling — the
    /// equi-join state of the art (§V.1); supports equi and band conditions
    /// only (band pays 2β+1 replication).
    Hash,
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SchemeKind::Ci => "CI",
            SchemeKind::Csi => "CSI",
            SchemeKind::Csio => "CSIO",
            SchemeKind::Hash => "HASH",
        })
    }
}

/// Diagnostics recorded while building a scheme (sizes, estimates, measured
/// histogram-algorithm time) — the raw material of Table V and Fig. 4h.
#[derive(Clone, Debug, Default)]
pub struct BuildInfo {
    /// Sample matrix side (CSIO) or bucket count p (CSI).
    pub ns: usize,
    /// Coarse matrix side (CSIO only).
    pub nc: usize,
    /// Input sample size per relation.
    pub si: usize,
    /// Output sample size (CSIO only).
    pub so: usize,
    /// Estimated (CSIO: exact) join output size.
    pub m_est: u64,
    /// Estimated maximum region weight in milli-units (`CSIO-est`).
    pub est_max_weight: u64,
    /// δ from the regionalization binary search (milli-units).
    pub delta: u64,
    /// Measured wall-clock of the histogram algorithm itself (sampling data
    /// structures + coarsening + regionalization; excludes relation scans).
    pub hist_secs: f64,
    /// Tuples the statistics phase must scan (drives the modeled stats
    /// time): `2(n1+n2)` for CSI's two passes, `(n1+n2) + (|d2equi| + n1)`
    /// for CSIO's shared pass plus the d2/S1 pass, 0 for CI.
    pub stats_scan_tuples: u64,
}

/// A built partitioning scheme: regions, the router that implements them,
/// and build diagnostics.
#[derive(Clone, Debug)]
pub struct PartitionScheme {
    pub kind: SchemeKind,
    pub regions: Vec<Region>,
    pub router: Router,
    pub build: BuildInfo,
}

impl PartitionScheme {
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Estimated maximum region weight under `cost` (milli-units).
    pub fn est_max_weight(&self, cost: &CostModel) -> u64 {
        self.regions
            .iter()
            .map(|r| r.est_weight(cost))
            .max()
            .unwrap_or(0)
    }
}
