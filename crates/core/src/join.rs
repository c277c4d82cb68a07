//! Monotonic join conditions.
//!
//! The paper targets the broad class of *monotonic* joins (Okcan &
//! Riedewald's definition): once both relations are sorted by join key, the
//! candidate region of the join matrix is a staircase — each row's candidate
//! cells form one contiguous column interval whose endpoints never decrease
//! from row to row.
//!
//! Every condition here has an equivalent characterization through its
//! *joinable range*: `b` joins with `a` iff `b ∈ jr(a)`, where `jr(a)` is one
//! contiguous key range whose endpoints are non-decreasing in `a`. That
//! single property powers candidacy checks, Stream-Sample's `d2`
//! computation, and the sliding-window local join.

use crate::{Key, KeyRange};

/// Inequality operators (`R1.key OP R2.key`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IneqOp {
    Lt,
    Le,
    Gt,
    Ge,
}

/// A monotonic join condition between `R1.key` (left, `a`) and `R2.key`
/// (right, `b`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinCondition {
    /// `a == b`.
    Equi,
    /// Band join `|a − b| ≤ β` (β ≥ 0).
    Band { beta: i64 },
    /// `a OP b`.
    Inequality(IneqOp),
    /// The composite equality + band condition of the paper's BE_OCD query,
    /// on keys encoded as `hi · shift + lo` with `lo ∈ [0, shift)`:
    /// `a.hi == b.hi AND |a.lo − b.lo| ≤ β`, requiring `0 ≤ β < shift` and
    /// non-negative encoded keys.
    EquiBand { shift: i64, beta: i64 },
}

impl JoinCondition {
    /// Panics when parameters are out of range (β < 0, shift ≤ 0, β ≥ shift).
    pub fn validate(&self) {
        match *self {
            JoinCondition::Band { beta } => assert!(beta >= 0, "band width must be >= 0"),
            JoinCondition::EquiBand { shift, beta } => {
                assert!(shift > 0, "shift must be positive");
                assert!((0..shift).contains(&beta), "beta must be in [0, shift)");
            }
            _ => {}
        }
    }

    /// Does the pair `(a, b)` satisfy the condition?
    #[inline]
    pub fn matches(&self, a: Key, b: Key) -> bool {
        match *self {
            JoinCondition::Equi => a == b,
            JoinCondition::Band { beta } => a.abs_diff(b) <= beta as u64,
            JoinCondition::Inequality(op) => match op {
                IneqOp::Lt => a < b,
                IneqOp::Le => a <= b,
                IneqOp::Gt => a > b,
                IneqOp::Ge => a >= b,
            },
            JoinCondition::EquiBand { shift, beta } => {
                // Euclidean div/mod so negative (sentinel) keys behave like
                // ordinary group members and monotonicity is preserved.
                a.div_euclid(shift) == b.div_euclid(shift)
                    && (a.rem_euclid(shift) - b.rem_euclid(shift)).abs() <= beta
            }
        }
    }

    /// The *joinable range* of `a`: the inclusive range of `R2` keys that
    /// satisfy the condition with `a`. Always contiguous; both endpoints are
    /// non-decreasing functions of `a` (the staircase property — asserted by
    /// property tests) over the [`partnered_keys`](Self::partnered_keys);
    /// outside them it is [`KeyRange::empty`].
    #[inline]
    pub fn joinable_range(&self, a: Key) -> KeyRange {
        match *self {
            JoinCondition::Equi => KeyRange::new(a, a),
            JoinCondition::Band { beta } => {
                KeyRange::new(a.saturating_sub(beta), a.saturating_add(beta))
            }
            JoinCondition::Inequality(op) => match op {
                IneqOp::Lt => a
                    .checked_add(1)
                    .map_or(KeyRange::empty(), |lo| KeyRange::new(lo, Key::MAX)),
                IneqOp::Le => KeyRange::new(a, Key::MAX),
                IneqOp::Gt => a
                    .checked_sub(1)
                    .map_or(KeyRange::empty(), |hi| KeyRange::new(Key::MIN, hi)),
                IneqOp::Ge => KeyRange::new(Key::MIN, a),
            },
            JoinCondition::EquiBand { shift, beta } => {
                // Within the group of `a`: [a − min(p, β), a + min(shift−1−p, β)]
                // with p = a mod shift — written relative to `a` so extreme
                // keys saturate instead of overflowing.
                let p = a.rem_euclid(shift);
                KeyRange::new(
                    a.saturating_sub(p.min(beta)),
                    a.saturating_add((shift - 1 - p).min(beta)),
                )
            }
        }
    }

    /// [`joinable_range`](Self::joinable_range) as the `(lo, hi)` pair the
    /// census sweeps of `ewh_sampling` take (`lo > hi`: no partner).
    #[inline]
    pub fn joinable_bounds(&self, a: Key) -> (Key, Key) {
        let KeyRange { lo, hi } = self.joinable_range(a);
        (lo, hi)
    }

    /// The `R1` keys that have a partner at all: every key, except that a
    /// strict inequality finds nothing above `Key::MAX` or below `Key::MIN`.
    #[inline]
    pub fn partnered_keys(&self) -> KeyRange {
        match *self {
            JoinCondition::Inequality(IneqOp::Lt) => KeyRange::new(Key::MIN, Key::MAX - 1),
            JoinCondition::Inequality(IneqOp::Gt) => KeyRange::new(Key::MIN + 1, Key::MAX),
            _ => KeyRange::full(),
        }
    }

    /// The union of `jr(a)` over `a ∈ r1`. Because `jr` endpoints are
    /// non-decreasing over the partnered keys and consecutive joinable
    /// ranges overlap or touch, it is exactly `[jr(lo).lo, jr(hi).hi]` for
    /// the partnered part `[lo, hi]` of `r1`.
    #[inline]
    pub fn joinable_span(&self, r1: &KeyRange) -> KeyRange {
        let live = self.partnered_keys();
        let (lo, hi) = (r1.lo.max(live.lo), r1.hi.min(live.hi));
        if lo > hi {
            return KeyRange::empty();
        }
        KeyRange::new(self.joinable_range(lo).lo, self.joinable_range(hi).hi)
    }

    /// Exact candidacy check for key-range rectangles: may any `(a, b)` with
    /// `a ∈ r1`, `b ∈ r2` satisfy the condition? One interval intersection
    /// with [`joinable_span`](Self::joinable_span) — the O(1) boundary-only
    /// check that CSI and CSIO rely on (§II-B).
    #[inline]
    pub fn candidate(&self, r1: &KeyRange, r2: &KeyRange) -> bool {
        self.joinable_span(r1).intersects(r2)
    }

    /// Encodes a `(group, position)` pair for [`JoinCondition::EquiBand`].
    #[inline]
    pub fn encode_composite(group: i64, position: i64, shift: i64) -> Key {
        debug_assert!((0..shift).contains(&position));
        group * shift + position
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONDS: &[JoinCondition] = &[
        JoinCondition::Equi,
        JoinCondition::Band { beta: 0 },
        JoinCondition::Band { beta: 3 },
        JoinCondition::Inequality(IneqOp::Lt),
        JoinCondition::Inequality(IneqOp::Le),
        JoinCondition::Inequality(IneqOp::Gt),
        JoinCondition::Inequality(IneqOp::Ge),
        JoinCondition::EquiBand { shift: 16, beta: 2 },
    ];

    /// Where `saturating_add/sub` used to bite.
    const EXTREMES: [Key; 7] = [Key::MIN, Key::MIN + 1, -1, 0, 1, Key::MAX - 1, Key::MAX];

    #[test]
    fn joinable_range_agrees_with_matches() {
        // jr(a) must contain exactly the keys b with matches(a, b).
        for cond in CONDS {
            for a in (0..64).chain(EXTREMES) {
                let jr = cond.joinable_range(a);
                for b in (0..64).chain(EXTREMES) {
                    assert_eq!(
                        cond.matches(a, b),
                        jr.contains(b),
                        "{cond:?} a={a} b={b} jr={jr:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn joinable_endpoints_are_non_decreasing() {
        // The staircase property everything else depends on, over every key
        // that has a partner.
        for cond in CONDS {
            let live = cond.partnered_keys();
            let mut prev = KeyRange::new(Key::MIN, Key::MIN);
            for a in [Key::MIN, Key::MIN + 1, -1]
                .into_iter()
                .chain(0..200)
                .chain([Key::MAX - 1, Key::MAX])
                .filter(|&a| live.contains(a))
            {
                let jr = cond.joinable_range(a);
                assert!(!jr.is_empty(), "{cond:?} a={a} has a partner");
                assert!(jr.lo >= prev.lo, "{cond:?} lo decreased at a={a}");
                assert!(jr.hi >= prev.hi, "{cond:?} hi decreased at a={a}");
                prev = jr;
            }
        }
    }

    #[test]
    fn candidate_is_exact_on_small_ranges() {
        for cond in CONDS {
            for alo in 0..12i64 {
                for ahi in alo..12 {
                    for blo in 0..12i64 {
                        for bhi in blo..12 {
                            let r1 = KeyRange::new(alo, ahi);
                            let r2 = KeyRange::new(blo, bhi);
                            let brute =
                                (alo..=ahi).any(|a| (blo..=bhi).any(|b| cond.matches(a, b)));
                            assert_eq!(
                                cond.candidate(&r1, &r2),
                                brute,
                                "{cond:?} r1={r1:?} r2={r2:?}"
                            );
                        }
                    }
                }
            }
            // At the extremes: a brute force over these keys alone is exact,
            // since the closest pair of two ranges sits at their endpoints.
            let ranges = |lo: Key| EXTREMES.into_iter().filter(move |&hi| lo <= hi);
            for (alo, blo) in EXTREMES.into_iter().flat_map(|a| EXTREMES.map(|b| (a, b))) {
                for (ahi, bhi) in ranges(alo).flat_map(|a| ranges(blo).map(move |b| (a, b))) {
                    let (r1, r2) = (KeyRange::new(alo, ahi), KeyRange::new(blo, bhi));
                    let within = |r: KeyRange| EXTREMES.into_iter().filter(move |&k| r.contains(k));
                    let brute = within(r1).any(|a| within(r2).any(|b| cond.matches(a, b)));
                    assert_eq!(
                        cond.candidate(&r1, &r2),
                        brute,
                        "{cond:?} r1={r1:?} r2={r2:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_rejects_empty_ranges() {
        let cond = JoinCondition::Band { beta: 5 };
        assert!(!cond.candidate(&KeyRange::empty(), &KeyRange::full()));
        assert!(!cond.candidate(&KeyRange::full(), &KeyRange::empty()));
    }

    #[test]
    fn equiband_respects_group_boundaries() {
        let cond = JoinCondition::EquiBand { shift: 10, beta: 2 };
        let a = JoinCondition::encode_composite(3, 9, 10); // group 3, pos 9
        let b = JoinCondition::encode_composite(4, 0, 10); // group 4, pos 0
                                                           // Encoded keys differ by 1 but the groups differ: no match.
        assert_eq!(b - a, 1);
        assert!(!cond.matches(a, b));
        // Joinable range of `a` must stay inside group 3.
        let jr = cond.joinable_range(a);
        assert_eq!(jr, KeyRange::new(37, 39));
    }

    #[test]
    fn band_saturates_at_key_extremes() {
        let cond = JoinCondition::Band { beta: 10 };
        let jr = cond.joinable_range(Key::MAX - 3);
        assert_eq!(jr.hi, Key::MAX);
        let jr = cond.joinable_range(Key::MIN + 3);
        assert_eq!(jr.lo, Key::MIN);
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn equiband_validation() {
        JoinCondition::EquiBand { shift: 4, beta: 4 }.validate();
    }
}
