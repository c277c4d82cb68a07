use crate::Key;

/// Sorted distinct join keys with multiplicities and prefix sums — the
/// paper's `d2equi` structure (§IV-A, step 1).
///
/// For any join condition whose joinable set is one contiguous key range
/// (equi, band, inequality, and the encoded equality+band composite), the
/// joinable-set size `d2(k)` is a single [`KeyedCounts::range_count`] call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyedCounts {
    keys: Vec<Key>,
    counts: Vec<u64>,
    /// `prefix[i]` = total multiplicity of `keys[..i]`; `prefix.len() == keys.len() + 1`.
    prefix: Vec<u64>,
}

/// The run of cumulative counts `cum` (`cum[i]` = items before run `i`) that
/// holds item `rank`, scanning forward from run `from`: the first `i >= from`
/// with `cum[i + 1] > rank`. Resolving ascending ranks this way is one walk.
#[inline]
pub(crate) fn run_of(cum: &[u64], from: usize, rank: u64) -> usize {
    from + cum[from + 1..].iter().take_while(|&&c| c <= rank).count()
}

impl KeyedCounts {
    /// The census of a relation's key column: every consumer of a relation's
    /// statistics (its equi-depth histogram, `d2equi`, Stream-Sample's `R1`
    /// weights) reads this one structure, so a scheme build sorts each
    /// relation once. An already sorted column is aggregated in place, with
    /// no copy and no sort.
    pub fn census(keys: &[Key]) -> Self {
        Self::census_of(keys.iter().copied())
    }

    /// [`census`](Self::census) of keys read off anything that yields them
    /// twice, such as the key field of a relation's tuples. Sorted keys are
    /// run-length encoded as they are read, with no copy; unsorted ones are
    /// collected into one column, which is sorted in place.
    pub fn census_of(keys: impl Iterator<Item = Key> + Clone) -> Self {
        if keys.clone().is_sorted() {
            Self::from_sorted(keys)
        } else {
            Self::from_keys(keys.collect())
        }
    }

    /// The census of a key column the caller hands over: the column is
    /// sorted in place (one pass when it is sorted already: the sort
    /// detects that) and run-length encoded, never copied. `O(n log n)`.
    pub fn from_keys(mut keys: Vec<Key>) -> Self {
        keys.sort_unstable();
        Self::from_sorted(keys.into_iter())
    }

    /// Run-length encodes ascending keys.
    fn from_sorted(sorted: impl Iterator<Item = Key>) -> Self {
        let (mut keys, mut counts) = (Vec::new(), Vec::<u64>::new());
        for k in sorted {
            if keys.last() == Some(&k) {
                *counts.last_mut().expect("a count per key") += 1;
            } else {
                keys.push(k);
                counts.push(1);
            }
        }
        Self::from_runs(keys, counts)
    }

    /// A census given as runs: strictly ascending `keys`, each with its
    /// multiplicity (a zero run is dropped). This is how a census that was
    /// *computed* rather than counted — the key census of a join's output,
    /// see [`join_census_r1`](crate::join_census_r1) — becomes one. Totals
    /// saturate at `u64::MAX`.
    pub fn from_runs(mut keys: Vec<Key>, mut counts: Vec<u64>) -> Self {
        assert_eq!(keys.len(), counts.len());
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "runs not ascending");
        if counts.contains(&0) {
            let mut kept = counts.iter().map(|&c| c > 0);
            keys.retain(|_| kept.next().unwrap());
            counts.retain(|&c| c > 0);
        }
        let mut prefix = Vec::with_capacity(keys.len() + 1);
        let mut total = 0u64;
        prefix.push(total);
        for &c in &counts {
            total = total.saturating_add(c);
            prefix.push(total);
        }
        KeyedCounts {
            keys,
            counts,
            prefix,
        }
    }

    /// Total multiplicity.
    #[inline]
    pub fn total(&self) -> u64 {
        *self.prefix.last().unwrap_or(&0)
    }

    /// Number of distinct keys.
    #[inline]
    pub fn num_distinct(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// `prefix()[i]` = total multiplicity of `keys()[..i]`.
    #[inline]
    pub(crate) fn prefix(&self) -> &[u64] {
        &self.prefix
    }

    /// Index of the first key `>= k`.
    #[inline]
    fn lower_bound(&self, k: Key) -> usize {
        self.keys.partition_point(|&x| x < k)
    }

    /// Total multiplicity of keys in the inclusive range `[lo, hi]` — the
    /// joinable-set size `d2` for a tuple whose joinable range is `[lo, hi]`.
    #[inline]
    pub fn range_count(&self, lo: Key, hi: Key) -> u64 {
        if lo > hi {
            return 0;
        }
        let a = self.lower_bound(lo);
        let b = self.keys.partition_point(|&x| x <= hi);
        self.prefix[b] - self.prefix[a]
    }

    /// [`range_count`](Self::range_count) of `joinable(k)` for every key of an
    /// ascending list, by one monotone two-pointer sweep over the two sorted
    /// key lists: `O(|keys| + distinct)`, where a `range_count` per key pays
    /// two binary searches.
    ///
    /// The sweep relies on what every monotonic join condition provides —
    /// both endpoints of `joinable(k)` non-decreasing in `k`. A key whose
    /// endpoint decreases is still counted exactly: that pointer re-seats
    /// itself by binary search, so a non-monotone closure costs time, never
    /// correctness.
    pub fn range_counts<'a>(
        &'a self,
        keys: &'a [Key],
        joinable: impl Fn(Key) -> (Key, Key) + 'a,
    ) -> impl Iterator<Item = u64> + 'a {
        self.range_spans(keys, joinable)
            .map(|(a, b)| self.prefix[b].saturating_sub(self.prefix[a]))
    }

    /// The sweep behind [`range_counts`](Self::range_counts): for every key
    /// of the ascending list, the half-open span `a..b` of this census's
    /// distinct keys that lie in `joinable(k)` (`a >= b`: none do).
    pub(crate) fn range_spans<'a>(
        &'a self,
        keys: &'a [Key],
        joinable: impl Fn(Key) -> (Key, Key) + 'a,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        // `a`: first key >= lo; `b`: first key > hi.
        let (mut a, mut b) = (0, 0);
        let (mut prev_lo, mut prev_hi) = (Key::MIN, Key::MIN);
        keys.iter().map(move |&k| {
            let (lo, hi) = joinable(k);
            if lo < prev_lo {
                a = self.lower_bound(lo);
            }
            if hi < prev_hi {
                b = self.keys.partition_point(|&x| x <= hi);
            }
            a += self.keys[a..].iter().take_while(|&&x| x < lo).count();
            b += self.keys[b..].iter().take_while(|&&x| x <= hi).count();
            (prev_lo, prev_hi) = (lo, hi);
            (a, b)
        })
    }

    /// Picks the `u`-th tuple (0-based) among the tuples whose key lies in
    /// `[lo, hi]`, returning its key. This realizes "choose a join key from
    /// the joinable set with probability proportional to its multiplicity"
    /// (§IV-A, step 3). `u` must be `< range_count(lo, hi)`.
    pub fn pick_in_range(&self, lo: Key, hi: Key, u: u64) -> Key {
        let a = self.lower_bound(lo);
        debug_assert!(u < self.range_count(lo, hi));
        let target = self.prefix[a] + u;
        // First index i with prefix[i+1] > target.
        let i = self.prefix[a + 1..].partition_point(|&p| p <= target) + a;
        self.keys[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_multiset() {
        let kc = KeyedCounts::from_keys(vec![5, 3, 5, 5, 3, 9]);
        assert_eq!(kc.keys(), &[3, 5, 9]);
        assert_eq!(kc.counts(), &[2, 3, 1]);
        assert_eq!(kc.total(), 6);
        assert_eq!(kc.num_distinct(), 3);
    }

    #[test]
    fn range_count_matches_brute_force() {
        let keys = vec![-4, -4, 0, 2, 2, 2, 7, 11, 11];
        let kc = KeyedCounts::from_keys(keys.clone());
        for lo in -6..14 {
            for hi in lo - 1..14 {
                let expect = keys.iter().filter(|&&k| lo <= k && k <= hi).count() as u64;
                assert_eq!(kc.range_count(lo, hi), expect, "[{lo},{hi}]");
            }
        }
    }

    #[test]
    fn range_count_extremes() {
        let kc = KeyedCounts::from_keys(vec![1, 2, 3]);
        assert_eq!(kc.range_count(Key::MIN, Key::MAX), 3);
        assert_eq!(kc.range_count(4, Key::MAX), 0);
        assert_eq!(kc.range_count(3, 2), 0); // inverted
        let empty = KeyedCounts::from_keys(vec![]);
        assert_eq!(empty.range_count(Key::MIN, Key::MAX), 0);
        assert_eq!(empty.total(), 0);
    }

    #[test]
    fn pick_in_range_is_proportional_to_multiplicity() {
        let kc = KeyedCounts::from_keys(vec![10, 20, 20, 20, 30, 30]);
        // In range [15, 35] there are 5 tuples: 20,20,20,30,30.
        let picks: Vec<Key> = (0..5).map(|u| kc.pick_in_range(15, 35, u)).collect();
        assert_eq!(picks, vec![20, 20, 20, 30, 30]);
        // Full range.
        assert_eq!(kc.pick_in_range(Key::MIN, Key::MAX, 0), 10);
        assert_eq!(kc.pick_in_range(Key::MIN, Key::MAX, 5), 30);
    }
}
