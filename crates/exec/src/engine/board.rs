//! The shared progress board: reducer heartbeats the migration coordinator
//! reads when deciding whether (and what) to migrate.
//!
//! Reducers publish lightweight progress signals as they work — whether they
//! are blocked on an empty queue, how many probe chunks they have swept,
//! and per-region absorbed and spilled volumes. All
//! fields are relaxed atomics: the board is advisory input to a heuristic,
//! never part of the correctness protocol (queue FIFO order and the
//! in-flight accounting in `mod.rs` are what guarantee correctness), so a
//! momentarily stale read costs at most one deferred or spurious migration
//! decision.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Shared progress heartbeats: one slot per reducer task plus one per
/// region.
#[derive(Debug)]
pub struct ProgressBoard {
    /// Per reducer: currently blocked on (or about to block on) its queue.
    idle: Vec<AtomicBool>,
    /// Per reducer: probe chunks swept so far.
    chunks_swept: Vec<AtomicU64>,
    /// Per region: probe (`R2`) tuples absorbed so far — the coordinator's
    /// proxy for a region's share of the remaining probe stream.
    region_probe: Vec<AtomicU64>,
    /// Per region: build (`R1`) tuples absorbed so far — the coordinator's
    /// estimate of how much state a migration would ship.
    region_build: Vec<AtomicU64>,
    /// Per region: tuples currently spilled to disk. The coordinator
    /// charges these into a migration's move cost (the new owner must
    /// re-read them), so budget pressure does not make migration thrash
    /// spilled regions.
    region_spilled: Vec<AtomicU64>,
}

impl ProgressBoard {
    pub fn new(reducers: usize, n_regions: usize) -> Self {
        ProgressBoard {
            idle: (0..reducers).map(|_| AtomicBool::new(false)).collect(),
            chunks_swept: (0..reducers).map(|_| AtomicU64::new(0)).collect(),
            region_probe: (0..n_regions).map(|_| AtomicU64::new(0)).collect(),
            region_build: (0..n_regions).map(|_| AtomicU64::new(0)).collect(),
            region_spilled: (0..n_regions).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    pub fn set_idle(&self, reducer: usize, idle: bool) {
        self.idle[reducer].store(idle, Ordering::Relaxed);
    }

    #[inline]
    pub fn is_idle(&self, reducer: usize) -> bool {
        self.idle[reducer].load(Ordering::Relaxed)
    }

    #[inline]
    pub fn note_chunk_swept(&self, reducer: usize) {
        self.chunks_swept[reducer].fetch_add(1, Ordering::Relaxed);
    }

    pub fn chunks_swept(&self, reducer: usize) -> u64 {
        self.chunks_swept[reducer].load(Ordering::Relaxed)
    }

    #[inline]
    pub fn add_probe(&self, region: u32, tuples: u64) {
        self.region_probe[region as usize].fetch_add(tuples, Ordering::Relaxed);
    }

    pub fn probe_tuples(&self, region: u32) -> u64 {
        self.region_probe[region as usize].load(Ordering::Relaxed)
    }

    #[inline]
    pub fn add_build(&self, region: u32, tuples: u64) {
        self.region_build[region as usize].fetch_add(tuples, Ordering::Relaxed);
    }

    pub fn build_tuples(&self, region: u32) -> u64 {
        self.region_build[region as usize].load(Ordering::Relaxed)
    }

    #[inline]
    pub fn add_spilled(&self, region: u32, tuples: u64) {
        self.region_spilled[region as usize].fetch_add(tuples, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub_spilled(&self, region: u32, tuples: u64) {
        self.region_spilled[region as usize].fetch_sub(tuples, Ordering::Relaxed);
    }

    pub fn spilled_tuples(&self, region: u32) -> u64 {
        self.region_spilled[region as usize].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeats_accumulate_per_slot() {
        let b = ProgressBoard::new(2, 3);

        b.set_idle(1, true);
        assert!(!b.is_idle(0));
        assert!(b.is_idle(1));
        b.set_idle(1, false);
        assert!(!b.is_idle(1));

        b.note_chunk_swept(1);
        assert_eq!(b.chunks_swept(0), 0);
        assert_eq!(b.chunks_swept(1), 1);

        b.add_probe(2, 10);
        b.add_probe(2, 5);
        b.add_build(0, 7);
        assert_eq!(b.probe_tuples(2), 15);
        assert_eq!(b.build_tuples(0), 7);
        assert_eq!(b.probe_tuples(0), 0);

        b.add_spilled(1, 20);
        b.sub_spilled(1, 8);
        assert_eq!(b.spilled_tuples(1), 12);
        assert_eq!(b.spilled_tuples(0), 0);
    }
}
