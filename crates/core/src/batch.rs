//! Columnar tuple batches: parallel key/payload columns.
//!
//! The engine's hot paths — routing scans, region sorts, the staircase
//! sweep — are per-tuple loops. Stored as an array-of-structs
//! `Vec<Tuple>` they chase 16-byte records; stored as two parallel
//! fixed-width columns (`keys: Vec<Key>`, `payloads: Vec<u64>`) each loop
//! touches exactly the column it needs and the compiler can autovectorize
//! the scans. A [`ColumnBatch`] is the structure-of-arrays twin of
//! `Vec<Tuple>`: same length, same logical tuples, position `i` of both
//! columns is one tuple.
//!
//! Sorting is where the layout pays off most: large batches use a stable
//! LSD radix sort over the contiguous key column (sign-bit-biased so
//! `i64` order matches byte order), with one histogram pass shared by all
//! eight digits and any digit whose byte is constant across the batch
//! skipped outright — region keys span a few thousand distinct values, so
//! typically only two or three of the eight scatter passes run. Small
//! batches fall back to the index-permutation trick: sort one `u32`
//! permutation by key, then apply it to both columns with
//! [`ColumnBatch::gather`]. Both paths are stable, so they produce the
//! byte-identical ordering of a stable array-of-structs sort.

use crate::types::{Key, Tuple};

/// Below this many tuples [`ColumnBatch::sort_by_key`] uses the
/// permutation comparison sort instead of the radix sort: the radix
/// scratch buffers and the 8-digit histogram pass cost more than they
/// save on small batches.
const RADIX_MIN_TUPLES: usize = 2048;

/// At or below this many tuples [`ColumnBatch::sort_by_key`] insertion-
/// sorts both columns in place: routed fragments are typically a few
/// dozen tuples, where any allocating sort (permutation or radix) loses
/// to an alloc-free quadratic one.
const INSERTION_MAX_TUPLES: usize = 64;

/// A batch of tuples in columnar (structure-of-arrays) layout: position
/// `i` of `keys` and `payloads` together form one logical tuple.
///
/// Both columns always have equal length — every method preserves that
/// invariant, and `debug_assert`s check it at the boundaries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColumnBatch {
    keys: Vec<Key>,
    payloads: Vec<u64>,
}

impl ColumnBatch {
    /// An empty batch (no allocation).
    #[inline]
    pub const fn new() -> Self {
        ColumnBatch {
            keys: Vec::new(),
            payloads: Vec::new(),
        }
    }

    /// An empty batch with room for `cap` tuples in both columns.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        ColumnBatch {
            keys: Vec::with_capacity(cap),
            payloads: Vec::with_capacity(cap),
        }
    }

    /// Builds a batch from parallel columns. Panics if lengths differ.
    #[inline]
    pub fn from_columns(keys: Vec<Key>, payloads: Vec<u64>) -> Self {
        assert_eq!(keys.len(), payloads.len(), "column lengths must match");
        ColumnBatch { keys, payloads }
    }

    /// Decomposes the batch into its raw columns — the inverse of
    /// [`from_columns`](Self::from_columns). Buffer recyclers use this to
    /// reuse a retired batch's allocations as fill targets.
    #[inline]
    pub fn into_columns(self) -> (Vec<Key>, Vec<u64>) {
        (self.keys, self.payloads)
    }

    /// Transposes an array-of-structs slice into columns.
    pub fn from_tuples(tuples: &[Tuple]) -> Self {
        ColumnBatch {
            keys: tuples.iter().map(|t| t.key).collect(),
            payloads: tuples.iter().map(|t| t.payload).collect(),
        }
    }

    /// Replaces the batch's tuples with `tuples`, transposed into the
    /// columns it already holds: no stale tail survives, and a column is
    /// reallocated only to grow past the most it has held.
    pub fn refill_from_tuples(&mut self, tuples: &[Tuple]) {
        self.clear();
        self.keys.extend(tuples.iter().map(|t| t.key));
        self.payloads.extend(tuples.iter().map(|t| t.payload));
    }

    /// Transposes back to array-of-structs (oracle-side representation).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.keys
            .iter()
            .zip(&self.payloads)
            .map(|(&key, &payload)| Tuple { key, payload })
            .collect()
    }

    /// Tuples in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        debug_assert_eq!(self.keys.len(), self.payloads.len());
        self.keys.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The key column.
    #[inline]
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// The payload column.
    #[inline]
    pub fn payloads(&self) -> &[u64] {
        &self.payloads
    }

    /// The logical tuple at position `i`.
    #[inline]
    pub fn tuple(&self, i: usize) -> Tuple {
        Tuple {
            key: self.keys[i],
            payload: self.payloads[i],
        }
    }

    /// Appends one tuple to both columns.
    #[inline]
    pub fn push(&mut self, key: Key, payload: u64) {
        self.keys.push(key);
        self.payloads.push(payload);
    }

    /// Moves every tuple of `other` to the end of `self`, leaving `other`
    /// empty (mirrors `Vec::append`).
    pub fn append(&mut self, other: &mut ColumnBatch) {
        self.keys.append(&mut other.keys);
        self.payloads.append(&mut other.payloads);
    }

    /// Extends `self` with a sub-range of `other`'s columns.
    pub fn extend_from_range(&mut self, other: &ColumnBatch, range: std::ops::Range<usize>) {
        self.keys.extend_from_slice(&other.keys[range.clone()]);
        self.payloads.extend_from_slice(&other.payloads[range]);
    }

    /// Appends parallel column slices in one bulk copy per column — the
    /// burst flush of a write-combining staging lane. Panics if the slice
    /// lengths differ.
    #[inline]
    pub fn extend_from_slices(&mut self, keys: &[Key], payloads: &[u64]) {
        assert_eq!(keys.len(), payloads.len(), "column lengths must match");
        self.keys.extend_from_slice(keys);
        self.payloads.extend_from_slice(payloads);
    }

    /// Reserves room for at least `additional` more tuples in both columns.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.keys.reserve(additional);
        self.payloads.reserve(additional);
    }

    /// Tuples the batch can hold without reallocating (the smaller of the
    /// two column capacities).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.keys.capacity().min(self.payloads.capacity())
    }

    pub fn clear(&mut self) {
        self.keys.clear();
        self.payloads.clear();
    }

    /// Drops every tuple past position `len` (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.keys.truncate(len);
        self.payloads.truncate(len);
    }

    /// Splits off the tail starting at `at`, leaving `[0, at)` in `self`
    /// (mirrors `Vec::split_off`) — morsel chunking in two column moves.
    pub fn split_off(&mut self, at: usize) -> ColumnBatch {
        ColumnBatch {
            keys: self.keys.split_off(at),
            payloads: self.payloads.split_off(at),
        }
    }

    /// The batch `[indices[0], indices[1], ..]` — a columnar gather, which
    /// is how the permutation-sort tier applies its index permutation. Each
    /// column is filled by its own pass over the index list: the per-pass
    /// random accesses then stay inside a single source array, and the
    /// exact-size `collect` writes the destination without a per-element
    /// capacity branch.
    pub fn gather(&self, indices: &[u32]) -> ColumnBatch {
        ColumnBatch {
            keys: indices.iter().map(|&i| self.keys[i as usize]).collect(),
            payloads: indices.iter().map(|&i| self.payloads[i as usize]).collect(),
        }
    }

    /// Sorts the batch by key, stably (ties keep arrival order), picking
    /// the strategy by size: tiny batches (routed fragments) insertion-
    /// sort in place without allocating; large ones take the key-column
    /// radix sort (see below); the mid range sorts a `u32`
    /// index permutation and applies it to both columns with one gather
    /// each. Batches are bounded well below `u32::MAX` tuples by queue
    /// capacities; asserted here.
    pub fn sort_by_key(&mut self) {
        let n = self.keys.len();
        if n <= 1 {
            return;
        }
        assert!(n <= u32::MAX as usize, "batch too large");
        if self.keys.is_sorted() {
            return;
        }
        if n <= INSERTION_MAX_TUPLES {
            self.insertion_sort();
        } else if n < RADIX_MIN_TUPLES {
            let mut perm: Vec<u32> = (0..n as u32).collect();
            perm.sort_by_key(|&i| self.keys[i as usize]);
            *self = self.gather(&perm);
        } else {
            self.radix_sort();
        }
    }

    /// Stable in-place insertion sort carrying both columns — quadratic,
    /// but alloc-free, which wins at fragment sizes.
    fn insertion_sort(&mut self) {
        for i in 1..self.keys.len() {
            let (key, payload) = (self.keys[i], self.payloads[i]);
            let mut j = i;
            while j > 0 && self.keys[j - 1] > key {
                self.keys[j] = self.keys[j - 1];
                self.payloads[j] = self.payloads[j - 1];
                j -= 1;
            }
            self.keys[j] = key;
            self.payloads[j] = payload;
        }
    }

    /// Stable LSD radix sort over the key column, payloads carried along.
    ///
    /// Keys are viewed through the sign-bit bias (`key as u64 ^ 1 << 63`),
    /// under which unsigned byte order equals `i64` order. One pass builds
    /// the histograms of all eight digits at once; each digit whose 256
    /// counts collapse to a single bucket (every key shares that byte —
    /// always true for the high digits of small-domain region keys) is
    /// skipped, and the remaining digits run counting-sort scatter passes
    /// ping-ponging between the columns and one scratch pair. Each pass is
    /// stable, so the composition reproduces a stable comparison sort
    /// exactly.
    fn radix_sort(&mut self) {
        const SIGN: u64 = 1 << 63;
        let n = self.keys.len();
        let mut hist = [[0u32; 256]; 8];
        for &k in &self.keys {
            let b = (k as u64) ^ SIGN;
            for (d, h) in hist.iter_mut().enumerate() {
                h[((b >> (d * 8)) & 0xFF) as usize] += 1;
            }
        }
        let mut src_k = std::mem::take(&mut self.keys);
        let mut src_p = std::mem::take(&mut self.payloads);
        let mut dst_k = vec![0 as Key; n];
        let mut dst_p = vec![0u64; n];
        for (d, h) in hist.iter().enumerate() {
            if h.iter().any(|&c| c as usize == n) {
                continue; // constant byte: the pass would be the identity
            }
            let mut offs = [0u32; 256];
            let mut sum = 0u32;
            for (o, &c) in offs.iter_mut().zip(h) {
                *o = sum;
                sum += c;
            }
            let shift = d * 8;
            for i in 0..n {
                let k = src_k[i];
                let byte = ((((k as u64) ^ SIGN) >> shift) & 0xFF) as usize;
                let at = offs[byte] as usize;
                offs[byte] += 1;
                dst_k[at] = k;
                dst_p[at] = src_p[i];
            }
            std::mem::swap(&mut src_k, &mut dst_k);
            std::mem::swap(&mut src_p, &mut dst_p);
        }
        self.keys = src_k;
        self.payloads = src_p;
    }

    /// Is the key column non-decreasing?
    #[inline]
    pub fn is_sorted_by_key(&self) -> bool {
        self.keys.is_sorted()
    }

    /// An iterator over the logical tuples (for oracle comparisons and
    /// cold paths; hot paths should loop over the columns directly).
    pub fn iter_tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.keys
            .iter()
            .zip(&self.payloads)
            .map(|(&key, &payload)| Tuple { key, payload })
    }
}

impl FromIterator<Tuple> for ColumnBatch {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        let mut b = ColumnBatch::new();
        for t in iter {
            b.push(t.key, t.payload);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(pairs: &[(Key, u64)]) -> ColumnBatch {
        let mut b = ColumnBatch::new();
        for &(k, p) in pairs {
            b.push(k, p);
        }
        b
    }

    #[test]
    fn round_trips_through_tuples() {
        let tuples: Vec<Tuple> = (0..50).map(|i| Tuple::new(i - 25, i as u64 * 3)).collect();
        let b = ColumnBatch::from_tuples(&tuples);
        assert_eq!(b.len(), 50);
        assert_eq!(b.to_tuples(), tuples);
        assert_eq!(b.iter_tuples().collect::<Vec<_>>(), tuples);
        assert_eq!(b.tuple(7), tuples[7]);
        let again: ColumnBatch = tuples.iter().copied().collect();
        assert_eq!(again, b);
    }

    #[test]
    fn a_refill_replaces_every_tuple_in_the_columns_it_holds() {
        let tuples: Vec<Tuple> = (0..50).map(|i| Tuple::new(i - 25, i as u64 * 3)).collect();
        let mut b = ColumnBatch::new();
        b.refill_from_tuples(&tuples);
        assert_eq!(b, ColumnBatch::from_tuples(&tuples));
        let held = b.capacity();
        // A shorter fill leaves no stale tail, and reallocates nothing.
        b.refill_from_tuples(&tuples[43..]);
        assert_eq!(b, ColumnBatch::from_tuples(&tuples[43..]));
        assert_eq!(b.capacity(), held);
        b.refill_from_tuples(&[]);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), held);
    }

    #[test]
    fn gather_handles_empty_single_and_repeats() {
        let b = batch(&[(10, 1), (20, 2), (30, 3)]);
        assert_eq!(b.gather(&[]), ColumnBatch::new());
        assert_eq!(b.gather(&[1]), batch(&[(20, 2)]));
        assert_eq!(b.gather(&[2, 0, 2]), batch(&[(30, 3), (10, 1), (30, 3)]));
        let empty = ColumnBatch::new();
        assert!(empty.gather(&[]).is_empty());
    }

    #[test]
    fn sort_is_stable_on_duplicate_keys() {
        let mut b = batch(&[(5, 0), (1, 1), (5, 2), (1, 3), (5, 4)]);
        b.sort_by_key();
        assert!(b.is_sorted_by_key());
        // Stable: equal keys keep their arrival order of payloads.
        assert_eq!(b, batch(&[(1, 1), (1, 3), (5, 0), (5, 2), (5, 4)]));
    }

    #[test]
    fn sort_edge_cases() {
        let mut empty = ColumnBatch::new();
        empty.sort_by_key();
        assert!(empty.is_empty() && empty.is_sorted_by_key());

        let mut one = batch(&[(42, 7)]);
        one.sort_by_key();
        assert_eq!(one, batch(&[(42, 7)]));

        let mut sorted = batch(&[(1, 1), (2, 2), (3, 3)]);
        sorted.sort_by_key();
        assert_eq!(sorted, batch(&[(1, 1), (2, 2), (3, 3)]));

        let mut rev = batch(&[(3, 3), (2, 2), (1, 1)]);
        rev.sort_by_key();
        assert_eq!(rev, batch(&[(1, 1), (2, 2), (3, 3)]));
    }

    #[test]
    fn every_sort_strategy_is_stable_at_its_size_band() {
        // Sizes straddling the insertion → permutation → radix cutoffs.
        for n in [
            2,
            INSERTION_MAX_TUPLES,
            INSERTION_MAX_TUPLES + 1,
            300,
            RADIX_MIN_TUPLES,
        ] {
            let mut b = ColumnBatch::with_capacity(n);
            let mut oracle: Vec<Tuple> = Vec::with_capacity(n);
            for i in 0..n {
                let key = ((i as Key).wrapping_mul(2_654_435_761) % 13) - 6;
                b.push(key, i as u64);
                oracle.push(Tuple::new(key, i as u64));
            }
            b.sort_by_key();
            oracle.sort_by_key(|t| t.key);
            assert_eq!(b.to_tuples(), oracle, "n = {n}");
        }
    }

    #[test]
    fn radix_path_matches_stable_comparison_sort() {
        // Well above RADIX_MIN_TUPLES, heavy duplication, negative keys,
        // and the extremes — every digit class the radix sort handles.
        let n = 3 * RADIX_MIN_TUPLES;
        let mut b = ColumnBatch::with_capacity(n);
        let mut oracle: Vec<Tuple> = Vec::with_capacity(n);
        for i in 0..n {
            let key = match i % 7 {
                0 => Key::MIN,
                1 => Key::MAX,
                _ => ((i as Key).wrapping_mul(2_654_435_761) % 97) - 48,
            };
            b.push(key, i as u64);
            oracle.push(Tuple::new(key, i as u64));
        }
        b.sort_by_key();
        oracle.sort_by_key(|t| t.key);
        assert!(b.is_sorted_by_key());
        assert_eq!(b.to_tuples(), oracle, "stable order must match exactly");
    }

    #[test]
    fn split_truncate_append_mirror_vec_semantics() {
        let mut b = batch(&[(1, 1), (2, 2), (3, 3), (4, 4)]);
        let tail = b.split_off(2);
        assert_eq!(b, batch(&[(1, 1), (2, 2)]));
        assert_eq!(tail, batch(&[(3, 3), (4, 4)]));

        let mut whole = batch(&[(1, 1)]);
        let empty_tail = whole.split_off(1);
        assert!(empty_tail.is_empty());
        let full_tail = whole.split_off(0);
        assert!(whole.is_empty());
        assert_eq!(full_tail, batch(&[(1, 1)]));

        let mut t = batch(&[(1, 1), (2, 2), (3, 3)]);
        t.truncate(1);
        assert_eq!(t, batch(&[(1, 1)]));
        t.truncate(5); // no-op past the end
        assert_eq!(t.len(), 1);

        let mut a = batch(&[(1, 1)]);
        let mut c = batch(&[(2, 2), (3, 3)]);
        a.append(&mut c);
        assert!(c.is_empty());
        assert_eq!(a, batch(&[(1, 1), (2, 2), (3, 3)]));

        let mut d = batch(&[(9, 9)]);
        d.extend_from_range(&a, 1..3);
        assert_eq!(d, batch(&[(9, 9), (2, 2), (3, 3)]));
        d.clear();
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "column lengths must match")]
    fn mismatched_columns_are_rejected() {
        let _ = ColumnBatch::from_columns(vec![1, 2], vec![3]);
    }
}
