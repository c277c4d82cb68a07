/// Join keys are signed 64-bit integers throughout the workspace.
pub type Key = i64;

/// Bytes charged per tuple by the memory model (key + payload).
pub const TUPLE_BYTES: u64 = 16;

/// A relation tuple: the join key plus an opaque payload standing in for the
/// rest of the record (used for checksums so "processing an output tuple"
/// touches real data).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tuple {
    pub key: Key,
    pub payload: u64,
}

impl Tuple {
    #[inline]
    pub fn new(key: Key, payload: u64) -> Self {
        Tuple { key, payload }
    }
}

/// An inclusive key range. `lo > hi` denotes the empty range.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KeyRange {
    pub lo: Key,
    pub hi: Key,
}

impl KeyRange {
    #[inline]
    pub fn new(lo: Key, hi: Key) -> Self {
        KeyRange { lo, hi }
    }

    /// The whole key space.
    #[inline]
    pub fn full() -> Self {
        KeyRange {
            lo: Key::MIN,
            hi: Key::MAX,
        }
    }

    #[inline]
    pub fn empty() -> Self {
        KeyRange { lo: 1, hi: 0 }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    #[inline]
    pub fn contains(&self, k: Key) -> bool {
        self.lo <= k && k <= self.hi
    }

    #[inline]
    pub fn intersects(&self, other: &KeyRange) -> bool {
        !self.is_empty() && !other.is_empty() && self.lo <= other.hi && other.lo <= self.hi
    }

    /// The keys of both ranges (empty when either is, or they are
    /// disjoint).
    #[inline]
    pub fn intersect(&self, other: &KeyRange) -> KeyRange {
        KeyRange::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges() {
        let r = KeyRange::new(-5, 5);
        assert!(r.contains(-5) && r.contains(0) && r.contains(5));
        assert!(!r.contains(6) && !r.contains(-6));
        assert!(!r.is_empty());
        assert!(KeyRange::empty().is_empty());
        assert!(KeyRange::full().contains(Key::MIN) && KeyRange::full().contains(Key::MAX));
        assert!(r.intersects(&KeyRange::new(5, 10)));
        assert!(!r.intersects(&KeyRange::new(6, 10)));
        assert!(!r.intersects(&KeyRange::empty()));
        assert_eq!(r.intersect(&KeyRange::new(3, 10)), KeyRange::new(3, 5));
        assert!(r.intersect(&KeyRange::new(6, 10)).is_empty());
        assert!(KeyRange::empty().intersect(&KeyRange::full()).is_empty());
    }
}
