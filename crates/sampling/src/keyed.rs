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
    /// `prefix[i]` = total multiplicity of `keys[..i]`; `prefix.len() == keys.len() + 1`.
    /// It holds each key's multiplicity once: `prefix[i + 1] - prefix[i]`.
    prefix: Vec<u64>,
}

/// The run of cumulative counts `cum` (`cum[i]` = items before run `i`) that
/// holds item `rank`, scanning forward from run `from`: the first `i >= from`
/// with `cum[i + 1] > rank`. Resolving ascending ranks this way is one walk.
#[inline]
pub(crate) fn run_of(cum: &[u64], from: usize, rank: u64) -> usize {
    from + cum[from + 1..].iter().take_while(|&&c| c <= rank).count()
}

/// How a census counts a column, chosen by [`path`] from one scan of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    /// Already ascending: run-length encoded as read.
    Sorted,
    /// Unsorted over a span narrower than twice its length: counted into
    /// one `u32` slot per key of the span.
    Dense,
    /// Unsorted over a wider span: collected into one column, sorted in
    /// place.
    Wide,
}

/// The path for `n` keys, ascending or not, whose `max − min` is `span`.
/// Dense slots are `u32`, so `n` must fit one; `span / 2 < n` is
/// `span < 2n` without computing `2n` or `span + 1`, and caps the slots at
/// `8n` bytes, the size of the column they stand in for.
fn path(n: usize, sorted: bool, span: u64) -> Path {
    if sorted {
        Path::Sorted
    } else if u32::try_from(n).is_ok() && span / 2 < n as u64 {
        Path::Dense
    } else {
        Path::Wide
    }
}

/// What one pass over a key column reads: enough to pick its [`Path`] and
/// to size the census of a sorted one.
struct Scan {
    n: usize,
    min: Key,
    max: Key,
    sorted: bool,
    /// Distinct keys, exact when `sorted` (runs of equal keys otherwise).
    runs: usize,
}

impl Scan {
    fn of(mut keys: impl Iterator<Item = Key>) -> Self {
        let first = keys.next();
        let (seen, mut prev) = (usize::from(first.is_some()), first.unwrap_or(0));
        let mut s = Scan {
            n: seen,
            min: prev,
            max: prev,
            sorted: true,
            runs: seen,
        };
        for k in keys {
            s.n += 1;
            (s.min, s.max) = (s.min.min(k), s.max.max(k));
            s.sorted &= prev <= k;
            s.runs += usize::from(prev != k);
            prev = k;
        }
        s
    }

    /// `max − min` as an offset from `min`: exact over the whole `i64` range.
    fn span(&self) -> u64 {
        self.max.wrapping_sub(self.min) as u64
    }
}

impl KeyedCounts {
    /// The census of a relation's key column: every consumer of a relation's
    /// statistics (its equi-depth histogram, `d2equi`, Stream-Sample's `R1`
    /// weights) reads this one structure, so a scheme build counts each
    /// relation once. It is [`census_of`](Self::census_of) the column's keys.
    pub fn census(keys: &[Key]) -> Self {
        Self::census_of(keys.iter().copied())
    }

    /// [`census`](Self::census) of keys read off anything that yields the
    /// same keys each time it is cloned, such as the key field of a
    /// relation's tuples. One scan reads the keys' count, minimum, maximum
    /// and order, and picks how they are counted, in `O(n)` unless the span
    /// is wide:
    ///
    /// * sorted keys are run-length encoded as they are read again, with no
    ///   column;
    /// * unsorted keys spanning less than twice their count are counted into
    ///   one `u32` slot per key of the span (at most `8n` bytes), then
    ///   compacted to runs;
    /// * unsorted keys over a wider span are collected into one column,
    ///   which is sorted in place (`O(n log n)`).
    ///
    /// The census's two arrays are allocated once, at their final size.
    pub fn census_of(keys: impl Iterator<Item = Key> + Clone) -> Self {
        let scan = Scan::of(keys.clone());
        match path(scan.n, scan.sorted, scan.span()) {
            Path::Sorted => Self::from_sorted(keys, scan.runs),
            Path::Dense => Self::from_slots(keys, &scan),
            Path::Wide => {
                let mut column: Vec<Key> = keys.collect();
                column.sort_unstable();
                let runs = 1 + column.windows(2).filter(|w| w[0] != w[1]).count();
                Self::from_sorted(column.into_iter(), runs)
            }
        }
    }

    /// Run-length encodes ascending keys that hold `runs` distinct ones,
    /// without a branch on the data: each key writes its run's key and the
    /// run's end so far, so a run's last key leaves its end in `prefix`.
    fn from_sorted(mut sorted: impl Iterator<Item = Key>, runs: usize) -> Self {
        let (mut keys, mut prefix) = (vec![0; runs], vec![0; runs + 1]);
        if let Some(first) = sorted.next() {
            (keys[0], prefix[1]) = (first, 1);
            let (mut prev, mut run, mut end) = (first, 0, 1);
            for k in sorted {
                run += usize::from(k != prev);
                end += 1;
                (keys[run], prefix[run + 1]) = (k, end);
                prev = k;
            }
        }
        KeyedCounts { keys, prefix }
    }

    /// Counts keys into one slot per key of the scanned span, then keeps
    /// the slots that counted any.
    fn from_slots(keys: impl Iterator<Item = Key>, scan: &Scan) -> Self {
        let mut slots = vec![0u32; scan.span() as usize + 1];
        for k in keys {
            slots[k.wrapping_sub(scan.min) as u64 as usize] += 1;
        }
        let runs = slots.iter().filter(|&&c| c > 0).count();
        let (mut keys, mut prefix) = (Vec::with_capacity(runs), Vec::with_capacity(runs + 1));
        prefix.push(0);
        for (i, &c) in slots.iter().enumerate().filter(|(_, &c)| c > 0) {
            keys.push(scan.min.wrapping_add(i as Key));
            prefix.push(prefix[prefix.len() - 1] + u64::from(c));
        }
        KeyedCounts { keys, prefix }
    }

    /// A census given as runs: strictly ascending `keys`, each with its
    /// multiplicity (a zero run is dropped). This is how a census that was
    /// *computed* rather than counted — the key census of a join's output,
    /// see [`join_census_r1`](crate::join_census_r1) — becomes one. Totals
    /// saturate at `u64::MAX`, and a run past the cap counts nothing.
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
        KeyedCounts { keys, prefix }
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

    /// Each distinct key's multiplicity, in key order.
    #[inline]
    pub fn counts(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.prefix.windows(2).map(|w| w[1] - w[0])
    }

    /// The multiplicity of `keys()[i]`.
    #[inline]
    pub fn count(&self, i: usize) -> u64 {
        self.prefix[i + 1] - self.prefix[i]
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
        let kc = KeyedCounts::census(&[5, 3, 5, 5, 3, 9]);
        assert_eq!(kc.keys(), &[3, 5, 9]);
        assert_eq!(kc.counts().collect::<Vec<_>>(), [2, 3, 1]);
        assert_eq!(kc.total(), 6);
        assert_eq!(kc.num_distinct(), 3);
    }

    #[test]
    fn range_count_matches_brute_force() {
        let keys = vec![-4, -4, 0, 2, 2, 2, 7, 11, 11];
        let kc = KeyedCounts::census(&keys);
        for lo in -6..14 {
            for hi in lo - 1..14 {
                let expect = keys.iter().filter(|&&k| lo <= k && k <= hi).count() as u64;
                assert_eq!(kc.range_count(lo, hi), expect, "[{lo},{hi}]");
            }
        }
    }

    #[test]
    fn range_count_extremes() {
        let kc = KeyedCounts::census(&[1, 2, 3]);
        assert_eq!(kc.range_count(Key::MIN, Key::MAX), 3);
        assert_eq!(kc.range_count(4, Key::MAX), 0);
        assert_eq!(kc.range_count(3, 2), 0); // inverted
        let empty = KeyedCounts::census(&[]);
        assert_eq!(empty.range_count(Key::MIN, Key::MAX), 0);
        assert_eq!(empty.total(), 0);
    }

    #[test]
    fn pick_in_range_is_proportional_to_multiplicity() {
        let kc = KeyedCounts::census(&[10, 20, 20, 20, 30, 30]);
        // In range [15, 35] there are 5 tuples: 20,20,20,30,30.
        let picks: Vec<Key> = (0..5).map(|u| kc.pick_in_range(15, 35, u)).collect();
        assert_eq!(picks, vec![20, 20, 20, 30, 30]);
        // Full range.
        assert_eq!(kc.pick_in_range(Key::MIN, Key::MAX, 0), 10);
        assert_eq!(kc.pick_in_range(Key::MIN, Key::MAX, 5), 30);
    }

    #[test]
    fn the_path_choice_at_its_edges() {
        // Ascending keys are encoded as read, whatever their span or count.
        assert_eq!(path(0, true, 0), Path::Sorted);
        assert_eq!(path(usize::MAX, true, u64::MAX), Path::Sorted);
        // The dense cut: a span below `2n`.
        for n in [1usize, 2, 1000, u32::MAX as usize] {
            let two_n = 2 * n as u64;
            assert_eq!(path(n, false, two_n - 1), Path::Dense, "n={n}");
            assert_eq!(path(n, false, two_n), Path::Wide, "n={n}");
            assert_eq!(path(n, false, two_n + 1), Path::Wide, "n={n}");
        }
        // `u32` slots hold at most `u32::MAX` keys, however narrow the span.
        let past_u32 = u32::MAX as usize + 1;
        assert_eq!(path(past_u32, false, 0), Path::Wide);
        assert_eq!(path(usize::MAX, false, 1), Path::Wide);
        // `Key::MIN..=Key::MAX`: `span + 1` would overflow; it is never formed.
        assert_eq!(path(u32::MAX as usize, false, u64::MAX), Path::Wide);
        assert_eq!(path(usize::MAX, false, u64::MAX), Path::Wide);
    }

    #[test]
    fn a_scan_reads_order_span_and_runs() {
        let s = Scan::of([Key::MAX, Key::MIN, 0, 0].into_iter());
        assert_eq!(
            (s.n, s.min, s.max, s.sorted),
            (4, Key::MIN, Key::MAX, false)
        );
        assert_eq!(s.span(), u64::MAX);
        let s = Scan::of([-3, -3, 5, 9, 9, 9].into_iter());
        assert_eq!((s.n, s.sorted, s.runs, s.span()), (6, true, 3, 12));
        // The first key opens a run, whatever its value.
        let s = Scan::of([Key::MIN, Key::MIN, 0].into_iter());
        assert_eq!((s.n, s.sorted, s.runs), (3, true, 2));
        let s = Scan::of(std::iter::empty());
        assert_eq!((s.n, s.sorted, s.runs), (0, true, 0));
    }
}
