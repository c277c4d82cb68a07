//! Morsel decomposition of the operator inputs, plus the shared memory
//! gauge that tracks the engine's peak resident footprint.
//!
//! A *morsel* is a fixed-size contiguous run of one input relation — the
//! scheduling quantum of the pipelined engine (after Leis et al.'s
//! morsel-driven parallelism). The [`MorselPlan`] describes the full
//! decomposition up front and hands out morsels through an atomic cursor, so
//! any number of mapper tasks can claim work without further coordination.
//! Every engine run cuts a fresh one. A morsel is a range of the caller's
//! tuples, never a copy: the mapper that claims it transposes just that
//! range into the columns it routes from.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use ewh_core::{Rel, Tuple};

use super::exchange::Exchange;

/// One claimable unit of routing work: a contiguous tuple range of one
/// relation. `Copy` on purpose: mappers claim morsels in a hot loop and a
/// plain start/end pair costs nothing to hand around (a `Range` field would
/// force a clone per claim).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Morsel {
    /// Position in the plan's global order (R1 morsels first).
    pub index: usize,
    pub rel: Rel,
    /// First tuple index of the run (inclusive).
    pub start: usize,
    /// One past the last tuple index (exclusive).
    pub end: usize,
}

impl Morsel {
    /// The tuple index range within the relation.
    #[inline]
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// One input side of a pipelined operator: either a base relation resident
/// in memory (scanned through the [`MorselPlan`]'s arithmetic morsels) or
/// the streamed probe output of an upstream operator, arriving batch by
/// batch through a bounded [`Exchange`]. This is what makes operators
/// *composable*: a downstream join consumes the upstream's output without
/// the intermediate ever being fully resident.
#[derive(Clone, Copy, Debug)]
pub enum Source<'a> {
    /// A base relation (or any fully materialized input), the caller's
    /// tuples as they are: a mapper transposes one morsel of them at a time
    /// into columns of its own.
    Scan(&'a [Tuple]),
    /// The streamed output of an upstream operator.
    Exchange(&'a Exchange),
}

impl<'a> Source<'a> {
    /// The scanned tuples, none for exchange sources (their tuples are
    /// pulled from the queue, never addressed by morsel range).
    pub fn scan(&self) -> &'a [Tuple] {
        match self {
            Source::Scan(t) => t,
            Source::Exchange(_) => &[],
        }
    }

    pub fn exchange(&self) -> Option<&'a Exchange> {
        match self {
            Source::Scan(_) => None,
            Source::Exchange(e) => Some(e),
        }
    }
}

/// One [`MorselPlan::try_claim`] outcome.
#[derive(Clone, Copy, Debug)]
pub enum Claim {
    Claimed(Morsel),
    /// The next morsel is `R2` and the caller's gate disallows it (the
    /// build phase is still shipping). The engine's mappers park on
    /// `SealState::r1_wake` here; the seal's final countdown decrement
    /// wakes them with the gate open.
    Blocked,
    /// Every morsel has been claimed.
    Drained,
}

/// The morsel decomposition of a join's two inputs. Construction is O(1):
/// morsels are described arithmetically, never materialized.
#[derive(Debug)]
pub struct MorselPlan {
    morsel_tuples: usize,
    n1: usize,
    n2: usize,
    next: AtomicUsize,
}

impl MorselPlan {
    pub fn new(n1: usize, n2: usize, morsel_tuples: usize) -> Self {
        MorselPlan {
            morsel_tuples: morsel_tuples.max(1),
            n1,
            n2,
            next: AtomicUsize::new(0),
        }
    }

    pub fn r1_morsels(&self) -> usize {
        self.n1.div_ceil(self.morsel_tuples)
    }

    pub fn r2_morsels(&self) -> usize {
        self.n2.div_ceil(self.morsel_tuples)
    }

    pub fn total(&self) -> usize {
        self.r1_morsels() + self.r2_morsels()
    }

    /// The morsel at global position `index` (R1 morsels come first).
    pub fn describe(&self, index: usize) -> Morsel {
        let r1m = self.r1_morsels();
        debug_assert!(index < self.total());
        if index < r1m {
            let start = index * self.morsel_tuples;
            Morsel {
                index,
                rel: Rel::R1,
                start,
                end: (start + self.morsel_tuples).min(self.n1),
            }
        } else {
            let start = (index - r1m) * self.morsel_tuples;
            Morsel {
                index,
                rel: Rel::R2,
                start,
                end: (start + self.morsel_tuples).min(self.n2),
            }
        }
    }

    /// Claims the next unclaimed morsel, behind a build-phase gate: when
    /// `allow_r2` is false, a cursor standing at the first `R2` morsel stays
    /// put and the claim reports [`Claim::Blocked`]. The engine's mappers gate `R2`
    /// claims on the `R1` seal countdown — probe tuples routed before the
    /// seal can only sit in unbounded per-region `pending` buffers (no
    /// region can sweep yet), so racing ahead into `R2` while some mapper
    /// is still shipping `R1` buys no pipelining and can balloon the
    /// resident peak to the whole probe side. The gate comes before the
    /// end of the plan: a probe side that streams in through an exchange
    /// has no `R2` morsel to stand at, and [`Claim::Drained`] is what sends
    /// a mapper to the exchange.
    pub fn try_claim(&self, allow_r2: bool) -> Claim {
        loop {
            let cur = self.next.load(Ordering::Acquire);
            if !allow_r2 && cur >= self.r1_morsels() {
                return Claim::Blocked;
            }
            if cur >= self.total() {
                return Claim::Drained;
            }
            if self
                .next
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Claim::Claimed(self.describe(cur));
            }
        }
    }
}

/// Cluster-wide resident-tuple gauge: incremented when a routed batch is
/// materialized, decremented when the reducer frees it (probe chunks after
/// their sweep, build state when the region completes). The high-water mark
/// is the engine's peak resident footprint — the number the pipelined mode
/// exists to shrink versus the batch path's full shuffle materialization.
#[derive(Debug, Default)]
pub struct MemGauge {
    current: AtomicU64,
    peak: AtomicU64,
}

impl MemGauge {
    pub fn add(&self, tuples: u64) {
        let now = self.current.fetch_add(tuples, Ordering::Relaxed) + tuples;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    pub fn sub(&self, tuples: u64) {
        self.current.fetch_sub(tuples, Ordering::Relaxed);
    }

    pub fn peak_tuples(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    pub fn current_tuples(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_both_relations_exactly() {
        let plan = MorselPlan::new(10_000, 4_097, 1024);
        assert_eq!(plan.r1_morsels(), 10);
        assert_eq!(plan.r2_morsels(), 5);
        let mut covered1 = 0;
        let mut covered2 = 0;
        for i in 0..plan.total() {
            let m = plan.describe(i);
            assert_eq!(m.index, i);
            assert!(m.len() <= 1024 && !m.is_empty());
            assert_eq!(m.range(), m.start..m.end);
            match m.rel {
                Rel::R1 => {
                    assert_eq!(m.start, covered1);
                    covered1 = m.end;
                }
                Rel::R2 => {
                    assert_eq!(m.start, covered2);
                    covered2 = m.end;
                }
            }
        }
        assert_eq!(covered1, 10_000);
        assert_eq!(covered2, 4_097);
    }

    #[test]
    fn claim_drains_each_morsel_exactly_once() {
        let plan = MorselPlan::new(100, 50, 16);
        let mut seen = vec![false; plan.total()];
        while let Claim::Claimed(m) = plan.try_claim(true) {
            assert!(!seen[m.index], "morsel {} claimed twice", m.index);
            seen[m.index] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(matches!(plan.try_claim(true), Claim::Drained));
    }

    #[test]
    fn the_build_phase_gate_holds_at_the_end_of_a_plan_whose_probe_side_streams() {
        // No `R2` morsels: the probe side arrives through an exchange. With
        // `R1` claimed but still shipping, a second mapper must wait — sent
        // to the exchange, it would fill unsealed regions' pending buffers.
        let plan = MorselPlan::new(40, 0, 16);
        for _ in 0..plan.r1_morsels() {
            assert!(matches!(plan.try_claim(false), Claim::Claimed(_)));
        }
        assert!(matches!(plan.try_claim(false), Claim::Blocked));
        assert!(matches!(plan.try_claim(true), Claim::Drained));
        // A scan probe side is gated at its first morsel, as ever.
        let plan = MorselPlan::new(16, 16, 16);
        assert!(matches!(plan.try_claim(false), Claim::Claimed(_)));
        assert!(matches!(plan.try_claim(false), Claim::Blocked));
        assert!(matches!(plan.try_claim(true), Claim::Claimed(_)));
        assert!(matches!(plan.try_claim(true), Claim::Drained));
    }

    #[test]
    fn empty_relations_yield_no_morsels() {
        let plan = MorselPlan::new(0, 0, 1024);
        assert_eq!(plan.total(), 0);
        assert!(matches!(plan.try_claim(true), Claim::Drained));
    }

    #[test]
    fn gauge_tracks_the_high_water_mark() {
        let g = MemGauge::default();
        g.add(100);
        g.add(50);
        g.sub(120);
        g.add(10);
        assert_eq!(g.peak_tuples(), 150);
        assert_eq!(g.current_tuples(), 40);
    }
}
