//! One sort of a whole relation by key, into one new buffer: what puts a
//! scanned probe side in key order before a pipelined query cuts it into
//! morsels.
//!
//! The sort is an MSD counting scatter from the caller's tuples into the
//! buffer it returns, on the top bits of each key's offset from the
//! minimum, then an in-place sort of each bucket. It holds one buffer the
//! size of the relation and no other: the scatter's bookkeeping is a count
//! and a destination slice per bucket and thread, and a bucket holds
//! sixteen tuples or more on average, so that bookkeeping stays a few bytes
//! a tuple. A bucket whose keys are all equal (the span fits the bucket
//! bits) is left as it is.
//!
//! Threads split the input into contiguous parts, and each part's share of
//! a bucket follows the earlier parts' shares, so the scatter is stable and
//! the output is the same at any number of threads.

use std::{mem, thread};

use crate::types::{Key, Tuple};

/// The most bucket bits of the scatter: 2^15 buckets, whose counts and
/// destinations stay a few hundred KiB a thread.
const BUCKET_BITS: u32 = 15;

/// At least `2^TUPLES_PER_BUCKET_BITS` tuples a bucket on average, so that
/// no array of the scatter's bookkeeping is as long as the relation.
const TUPLES_PER_BUCKET_BITS: u32 = 4;

/// `tuples` in ascending key order, in one new buffer, sorted on `threads`
/// threads (the calling thread among them; sequential at 1). Tuples with
/// equal keys keep no particular order, but the same one at any `threads`.
pub fn sort_tuples_by_key(tuples: &[Tuple], threads: usize) -> Vec<Tuple> {
    let n = tuples.len();
    if n == 0 {
        return Vec::new();
    }
    let parts: Vec<&[Tuple]> = tuples.chunks(n.div_ceil(threads.max(1))).collect();
    let bounds = on_threads(parts.clone(), |part| {
        part.iter().fold((Key::MAX, Key::MIN), |(lo, hi), t| {
            (lo.min(t.key), hi.max(t.key))
        })
    });
    let min = bounds.iter().map(|b| b.0).min().expect("a part");
    let max = bounds.iter().map(|b| b.1).max().expect("a part");
    // Buckets on the top bits of `key − min` (exact in `u64` whatever the
    // span). With no bucket bit `mask` is 0, which also covers a shift of
    // 64 that `wrapping_shr` reads as 0.
    let span_bits = u64::BITS - max.abs_diff(min).leading_zeros();
    let digit_bits = span_bits
        .min(BUCKET_BITS)
        .min(n.ilog2().saturating_sub(TUPLES_PER_BUCKET_BITS));
    let shift = span_bits - digit_bits;
    let mask = (1usize << digit_bits) - 1;
    let bucket = |k: Key| k.abs_diff(min).wrapping_shr(shift) as usize & mask;

    let counts = on_threads(parts.clone(), |part| {
        let mut count = vec![0usize; mask + 1];
        for t in part {
            count[bucket(t.key)] += 1;
        }
        count
    });
    let mut sorted = vec![Tuple::new(0, 0); n];
    // Each part's share of each bucket, bucket by bucket and part by part.
    let mut dests: Vec<Vec<&mut [Tuple]>> = counts
        .iter()
        .map(|_| Vec::with_capacity(mask + 1))
        .collect();
    let mut rest = &mut sorted[..];
    for b in 0..=mask {
        for (dest, count) in dests.iter_mut().zip(&counts) {
            let (share, tail) = mem::take(&mut rest).split_at_mut(count[b]);
            dest.push(share);
            rest = tail;
        }
    }
    on_threads(
        parts.into_iter().zip(dests).collect(),
        |(part, mut dest)| {
            for t in part {
                let b = bucket(t.key);
                let (slot, tail) = mem::take(&mut dest[b])
                    .split_first_mut()
                    .expect("a slot per counted tuple");
                *slot = *t;
                dest[b] = tail;
            }
        },
    );
    if shift == 0 {
        return sorted; // a bucket per key
    }

    // Each thread sorts a run of whole buckets holding about its share.
    let sizes: Vec<usize> = (0..=mask)
        .map(|b| counts.iter().map(|count| count[b]).sum())
        .collect();
    let share = n.div_ceil(counts.len());
    let mut runs = Vec::with_capacity(counts.len());
    let (mut rest, mut left) = (&mut sorted[..], &sizes[..]);
    while !left.is_empty() {
        let (mut len, mut buckets) = (0, 0);
        while buckets < left.len() && len < share {
            len += left[buckets];
            buckets += 1;
        }
        let (run, tail) = mem::take(&mut rest).split_at_mut(len);
        runs.push((run, &left[..buckets]));
        (rest, left) = (tail, &left[buckets..]);
    }
    on_threads(runs, |(mut run, sizes)| {
        for &size in sizes {
            let (bucket, tail) = mem::take(&mut run).split_at_mut(size);
            bucket.sort_unstable_by_key(|t| t.key);
            run = tail;
        }
    });
    sorted
}

/// `f` of each item, the first on the calling thread and each other on a
/// scoped thread of its own, in item order.
fn on_threads<I: Send, R: Send>(items: Vec<I>, f: impl Fn(I) -> R + Sync) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let f = &f;
    thread::scope(|s| {
        let others: Vec<_> = items.map(|item| s.spawn(move || f(item))).collect();
        let mut out = vec![f(first)];
        out.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("sort thread panicked")),
        );
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A permutation of `input` in ascending key order, equal at 1, 2 and 3
    /// threads.
    fn check(input: &[Tuple]) {
        let sorted = sort_tuples_by_key(input, 1);
        assert!(sorted.windows(2).all(|w| w[0].key <= w[1].key));
        let mut want = input.to_vec();
        want.sort_unstable_by_key(|t| (t.key, t.payload));
        let mut got = sorted.clone();
        got.sort_unstable_by_key(|t| (t.key, t.payload));
        assert_eq!(got, want, "not a permutation of the input");
        for threads in [2, 3] {
            assert_eq!(sort_tuples_by_key(input, threads), sorted, "{threads}");
        }
    }

    fn tuples(keys: impl IntoIterator<Item = Key>) -> Vec<Tuple> {
        let rows = keys.into_iter().enumerate();
        rows.map(|(i, k)| Tuple::new(k, i as u64)).collect()
    }

    #[test]
    fn empty_and_one_tuple_inputs() {
        assert!(sort_tuples_by_key(&[], 2).is_empty());
        check(&tuples([7]));
        check(&tuples([Key::MIN]));
    }

    #[test]
    fn all_equal_keys_keep_every_payload() {
        check(&tuples([42; 1000]));
        check(&tuples([Key::MAX; 33]));
    }

    #[test]
    fn the_extreme_keys_sort_at_both_ends() {
        let keys = (0..5000).map(|i: i64| match i % 7 {
            0 => Key::MIN,
            1 => Key::MAX,
            _ => i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64),
        });
        let input = tuples(keys);
        check(&input);
        let sorted = sort_tuples_by_key(&input, 2);
        assert_eq!((sorted[0].key, sorted[4999].key), (Key::MIN, Key::MAX));
    }

    #[test]
    fn dense_wide_sorted_and_reversed_spans() {
        let n = 40_000;
        let scramble = |i: i64| (i * 7919) % n;
        check(&tuples((0..n).map(scramble)));
        check(&tuples((0..n).map(|i| 10 * (scramble(i) / 10))));
        check(&tuples((0..n).map(|i| scramble(i) * 1_000_003)));
        check(&tuples(0..n));
        check(&tuples((0..n).rev()));
        check(&tuples((0..n).map(|i| -scramble(i))));
    }
}
