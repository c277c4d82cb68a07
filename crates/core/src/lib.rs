//! # ewh-core — equi-weight histograms for parallel joins
//!
//! The primary contribution of *Load Balancing and Skew Resilience for
//! Parallel Joins* (Vitorovic, Elseidy & Koch, ICDE 2016), implemented from
//! scratch:
//!
//! * the **join model** — monotonic join conditions ([`JoinCondition`]), the
//!   join matrix abstraction ([`JoinMatrix`]), rectangular [`Region`]s and
//!   the input/output [`CostModel`] `w(r) = ci(r) + co(r)`;
//! * the **three-stage histogram algorithm** (§III): sampling
//!   ([`histogram::build_sample_matrix`]), coarsening
//!   ([`histogram::coarsen_sample_matrix`]) and regionalization
//!   ([`histogram::regionalize`]) — O(n) end to end (Theorem 3.1);
//! * the three **partitioning schemes** of the evaluation: [`build_ci`]
//!   (1-Bucket), [`build_csi`] (M-Bucket) and [`build_csio`] (the paper's
//!   equi-weight histogram scheme), all producing a routable
//!   [`PartitionScheme`].
//!
//! Tuple shuffling and local join execution live in `ewh-exec`; the tiling
//! and sampling substrates in `ewh-tiling` / `ewh-sampling`.

mod batch;
mod cost;
mod frame;
pub mod histogram;
mod join;
mod matrix;
mod region;
mod router;
mod schemes;
mod types;

pub use batch::ColumnBatch;
pub use cost::CostModel;
pub use frame::FRAME_HEADER_BYTES;
pub use frame::{
    decode_record, encode_frame, encode_record, record_len, Frame, FrameDecoder, FrameError,
    MAX_FRAME_BODY,
};
pub use histogram::{HistogramParams, SideStats};
pub use join::{IneqOp, JoinCondition};
pub use matrix::JoinMatrix;
pub use region::Region;
pub use router::{
    GridBlock, GridRouter, HashRouter, RandomRouter, Rel, RouteBatch, RouteScatter, Router,
    RoutingTable,
};
pub use schemes::{
    build_ci, build_csi, build_csi_from_stats, build_csio, build_csio_from_stats, build_hash,
    build_hash_from_stats, BuildInfo, CsiParams, HashParams, PartitionScheme, SchemeKind,
};
pub use types::{Key, KeyRange, Tuple, TUPLE_BYTES};
