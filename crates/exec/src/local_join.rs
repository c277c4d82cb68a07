//! The per-worker local join.
//!
//! The paper's scheme is orthogonal to the local algorithm (§IV, "as long as
//! all the machines run the same algorithm"). We use a sort + sliding-window
//! sweep that handles every supported monotonic condition in
//! `O(n log n + output)`: after sorting both sides by key, the joinable range
//! `jr(a)` has non-decreasing endpoints in `a`, so two cursors sweep `R2`
//! exactly once per worker.
//!
//! Output handling is configurable: [`OutputWork::Touch`] folds every output
//! tuple's payloads into a checksum (standing in for the per-output-tuple
//! post-processing cost — writing to disk or shipping to the next operator —
//! that `wo` models), [`OutputWork::Count`] counts, and folds a checksum it
//! can take a whole partner run at a time ([`pair_tag`]).

use std::ops::Range;

use ewh_core::{ColumnBatch, JoinCondition, Key, KeyRange, Tuple};

/// How much work to spend per output tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputWork {
    /// Count matches (O(1) per `R1` tuple after the sweep); the checksum
    /// pins which tuples matched an odd number of times, not each pair.
    Count,
    /// Touch every output tuple (realistic `wo` cost), producing a checksum.
    Touch,
}

/// Which side's join key an emitted output tuple carries — i.e. which
/// attribute the *next* operator in a chained query plan joins on.
///
/// A left-deep chain `A ⋈ B ⋈ C` joins each new base relation against the
/// running intermediate: the first operator's output is keyed by its probe
/// side (`B`, the freshly joined relation), while every later operator
/// builds on the new base relation and probes the streamed intermediate, so
/// its output is keyed by the *build* side (the freshly joined `C`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyFrom {
    Build,
    Probe,
}

/// The payload of one matched pair — the single definition of the
/// `build·31 + probe` oracle contract. Every sweep variant (checksum
/// folds, emitted tuples, columnar kernels) derives its per-pair value
/// from this helper, so the contract lives in exactly one place.
#[inline]
pub fn pair_payload(build: u64, probe: u64) -> u64 {
    build.wrapping_mul(31).wrapping_add(probe)
}

/// What one matched pair contributes to [`OutputWork::Count`]'s checksum —
/// [`pair_payload`]'s counterpart, and like it the single definition. It is
/// XOR-separable into a build part and a probe part, which is what lets a
/// whole partner run be folded at once (`CountFold`).
#[inline]
pub fn pair_tag(build: u64, probe: u64) -> u64 {
    side_tag(build) ^ side_tag(probe).rotate_left(32)
}

#[inline]
fn side_tag(payload: u64) -> u64 {
    (payload ^ (payload >> 31)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// [`OutputWork::Count`]'s checksum: the XOR of [`pair_tag`] over every
/// matched pair — order-invariant, and XOR-combinable across chunks, runs
/// and regions exactly like the pair checksum, yet `O(1)` per build tuple:
/// a partner run folds to its probe parts' XOR (one prefix array over the
/// probe side) and, when its length is odd, the build part. It therefore
/// pins the *parity* of every tuple's partner count, on both sides, where
/// the count pins their total: a pair produced in the wrong place, or
/// twice, moves one of the two.
struct CountFold {
    /// `prefix[i]` = XOR of the probe parts before position `i`.
    prefix: Vec<u64>,
}

impl CountFold {
    fn over(probe_payloads: impl Iterator<Item = u64>) -> Self {
        let mut acc = 0u64;
        let parts = probe_payloads.map(|p| {
            acc ^= side_tag(p).rotate_left(32);
            acc
        });
        CountFold {
            prefix: std::iter::once(0).chain(parts).collect(),
        }
    }

    /// The fold of `build` matched with probe positions `partners`.
    #[inline]
    fn run(&self, build: u64, partners: Range<usize>) -> u64 {
        let odd = (partners.len() as u64 & 1).wrapping_neg();
        self.prefix[partners.end] ^ self.prefix[partners.start] ^ (side_tag(build) & odd)
    }
}

/// The canonical output tuple of one matched pair — the single definition
/// both the pipelined plan executor and the materialize-between-operators
/// baseline use, so chained results are comparable bit for bit. The payload
/// is exactly the pair's checksum contribution ([`pair_payload`]), so an
/// operator's XOR checksum equals the XOR of its emitted payloads.
#[inline]
pub fn output_tuple(build: &Tuple, probe: &Tuple, key_from: KeyFrom) -> Tuple {
    let key = match key_from {
        KeyFrom::Build => build.key,
        KeyFrom::Probe => probe.key,
    };
    Tuple::new(key, pair_payload(build.payload, probe.payload))
}

/// Joins one worker's buckets in place (sorts both). Returns
/// `(output_count, checksum)`.
pub fn local_join(
    r1: &mut [Tuple],
    r2: &mut [Tuple],
    cond: &JoinCondition,
    work: OutputWork,
) -> (u64, u64) {
    r1.sort_unstable_by_key(|t| t.key);
    r2.sort_unstable_by_key(|t| t.key);
    sweep_sorted(r1, r2, cond, work)
}

/// The part of a key-sorted build side the staircase holds on: the keys
/// that have a partner at all ([`JoinCondition::partnered_keys`]). The
/// others — `Key::MAX` under `<`, `Key::MIN` under `>` — sit at its ends,
/// and no key is read unless the condition has such keys.
fn partnered(n: usize, key: impl Fn(usize) -> Key, cond: &JoinCondition) -> Range<usize> {
    let live = cond.partnered_keys();
    let (mut first, mut last) = (0, n);
    if live != KeyRange::full() {
        while first < last && key(first) < live.lo {
            first += 1;
        }
        while first < last && key(last - 1) > live.hi {
            last -= 1;
        }
    }
    first..last
}

/// The one staircase kernel behind every sweep variant: walks the
/// pre-sorted sides, and hands each `R1` tuple its contiguous run of
/// joinable `R2` partners. Returns the pair count; what happens per pair
/// (checksum fold, emission, nothing) is the caller's closure — inlined
/// and monomorphized, so a no-op closure costs nothing.
///
/// Narrows `r1` to the tuples whose joinable range can reach the probe's
/// key span first: both `jr` endpoints are non-decreasing in the key (the
/// staircase property), so those tuples form one contiguous run found by
/// two binary searches. Every tuple of that run is then visited, matched
/// or not, so a sweep costs `O(log |r1| + span + |r2| + output)` where
/// `span` counts the `r1` tuples between the probe's smallest and largest
/// key — all of `r1` when a small probe chunk spans its key range. That is
/// the right trade for the batch oracle this kernel serves (one dense
/// sweep per region); the engine's per-chunk sweeps use the columnar
/// kernel below, which skips the unmatched stretches.
#[inline]
fn sweep_ranges(
    r1: &[Tuple],
    r2: &[Tuple],
    cond: &JoinCondition,
    mut on_range: impl FnMut(&Tuple, Range<usize>),
) -> u64 {
    if r1.is_empty() || r2.is_empty() {
        return 0;
    }
    debug_assert!(r1.windows(2).all(|w| w[0].key <= w[1].key));
    debug_assert!(r2.windows(2).all(|w| w[0].key <= w[1].key));
    let probe_min = r2[0].key;
    let probe_max = r2[r2.len() - 1].key;
    let r1 = &r1[partnered(r1.len(), |i| r1[i].key, cond)];
    let start = r1.partition_point(|t| cond.joinable_range(t.key).hi < probe_min);
    let end = r1.partition_point(|t| cond.joinable_range(t.key).lo <= probe_max);

    let mut count = 0u64;
    let mut lo = 0usize;
    let mut hi = 0usize;
    for t1 in r1[start..end].iter() {
        let jr = cond.joinable_range(t1.key);
        while lo < r2.len() && r2[lo].key < jr.lo {
            lo += 1;
        }
        if hi < lo {
            hi = lo;
        }
        while hi < r2.len() && r2[hi].key <= jr.hi {
            hi += 1;
        }
        count += (hi - lo) as u64;
        on_range(t1, lo..hi);
    }
    count
}

/// The sweep over *pre-sorted* inputs — the batch path's per-region join
/// once both sides are sorted. See `sweep_ranges` above for the shared
/// kernel and its complexity.
pub fn sweep_sorted(
    r1: &[Tuple],
    r2: &[Tuple],
    cond: &JoinCondition,
    work: OutputWork,
) -> (u64, u64) {
    let mut checksum = 0u64;
    let count = match work {
        // Count mode never iterates the partner runs: O(relevant), not
        // O(output).
        OutputWork::Count => {
            let fold = CountFold::over(r2.iter().map(|t| t.payload));
            sweep_ranges(r1, r2, cond, |t1, partners| {
                checksum ^= fold.run(t1.payload, partners)
            })
        }
        OutputWork::Touch => sweep_ranges(r1, r2, cond, |t1, partners| {
            for t2 in &r2[partners] {
                checksum ^= pair_payload(t1.payload, t2.payload);
            }
        }),
    };
    (count, checksum)
}

/// [`sweep_sorted`] that *emits* the output: every matched pair is handed
/// to `emit` as an [`output_tuple`], feeding a chained operator's exchange
/// (pipelined plans, which flush bounded batches from inside the sweep so
/// a hot region's output never materializes at once) or the materialized
/// intermediate (the baseline). Returns `(count, checksum)` exactly like
/// `sweep_sorted(..., OutputWork::Touch)` — the checksum is the XOR of the
/// emitted payloads.
pub fn sweep_sorted_each(
    r1: &[Tuple],
    r2: &[Tuple],
    cond: &JoinCondition,
    key_from: KeyFrom,
    mut emit: impl FnMut(Tuple),
) -> (u64, u64) {
    let mut checksum = 0u64;
    let count = sweep_ranges(r1, r2, cond, |t1, partners| {
        for t2 in &r2[partners] {
            let t = output_tuple(t1, t2, key_from);
            checksum ^= t.payload;
            emit(t);
        }
    });
    (count, checksum)
}

/// [`sweep_sorted_each`] appending into a vector — the materialized
/// baseline's per-region join.
pub fn sweep_sorted_into(
    r1: &[Tuple],
    r2: &[Tuple],
    cond: &JoinCondition,
    key_from: KeyFrom,
    out: &mut Vec<Tuple>,
) -> (u64, u64) {
    sweep_sorted_each(r1, r2, cond, key_from, |t| out.push(t))
}

/// The columnar staircase kernel: [`sweep_ranges`] rewritten over a bare
/// key column. The cursor walks and binary searches touch only `Key`
/// slices (half the bytes per element of a `Tuple` scan), and each
/// build-side match is reported as an *index range* of probe positions so
/// callers fold the parallel payload column in tight contiguous loops the
/// compiler can autovectorize.
///
/// The two sides *leapfrog*: a build key whose probe window comes out
/// empty does not step to its neighbour but gallops the build cursor to
/// the first key that can reach the next unmatched probe key, and the
/// sweep ends the moment the probe is exhausted. Every leap lands on a
/// build key that either matches or moves the probe cursor forward, so a
/// sweep costs `O(log |build| + m · log gap + matched + output)` with
/// `m = min(|build|, |probe|)` and `matched` the build tuples that have a
/// partner, each of which pays for itself in output. A 256-tuple probe
/// chunk against a region's whole sorted build costs what the chunk joins
/// with, not what lies between its smallest and largest key.
///
/// `build_keys` must be [`partnered_columns`]. The trim stays out of the
/// kernel on purpose: with it inside, as offset `start` / `end` or as an
/// offset index handed to `on_range`, a `bicd_csio` query measured 4% and a
/// `beocd_csio` query 12% slower (docs/changes/PR-22.md).
#[inline]
fn sweep_ranges_cols(
    build_keys: &[Key],
    probe_keys: &[Key],
    cond: &JoinCondition,
    mut on_range: impl FnMut(usize, Range<usize>),
) -> u64 {
    if build_keys.is_empty() || probe_keys.is_empty() {
        return 0;
    }
    debug_assert!(build_keys.is_sorted());
    debug_assert!(probe_keys.is_sorted());
    let probe_min = probe_keys[0];
    let probe_max = probe_keys[probe_keys.len() - 1];
    let start = build_keys.partition_point(|&k| cond.joinable_range(k).hi < probe_min);
    let end = build_keys.partition_point(|&k| cond.joinable_range(k).lo <= probe_max);
    let build_keys = &build_keys[..end];

    let mut count = 0u64;
    let mut lo = 0usize;
    let mut hi = 0usize;
    let mut i = start;
    // One iteration per distinct build key: its probe window, then either
    // a leap (the window is empty) or the run of its duplicates.
    while i < end {
        let k1 = build_keys[i];
        let jr = cond.joinable_range(k1);
        lo = gallop_while(probe_keys, lo, |k| k < jr.lo);
        hi = gallop_while(probe_keys, hi.max(lo), |k| k <= jr.hi);
        if hi == lo {
            // `lo` only moves forward, so once it runs off the probe no
            // later build key has a partner either.
            let Some(&next) = probe_keys.get(lo) else {
                break;
            };
            // Every build key whose range ends below `next` has an empty
            // window too (its `lo` is at least this one): leap over them.
            i = gallop_while(build_keys, i + 1, |k| cond.joinable_range(k).hi < next);
            continue;
        }
        // Sorted input puts duplicate build keys adjacent, and the probe
        // window depends only on the key — the whole run of `k1` shares
        // `lo..hi` without touching the probe column again.
        let run_start = i;
        while i < end && build_keys[i] == k1 {
            on_range(i, lo..hi);
            i += 1;
        }
        count += ((hi - lo) * (i - run_start)) as u64;
    }
    count
}

/// The key and payload columns of the [`partnered`] part of a sorted build
/// side: what the columnar kernel sweeps.
fn partnered_columns<'a>(build: &'a ColumnBatch, cond: &JoinCondition) -> (&'a [Key], &'a [u64]) {
    let live = partnered(build.len(), |i| build.keys()[i], cond);
    (&build.keys()[live.clone()], &build.payloads()[live])
}

/// Galloping cursor advance: returns the first index `>= from` whose key
/// fails `too_small` (a monotone predicate over the sorted column), or
/// `keys.len()`. The staircase cursor usually hops 0–2 positions per build
/// key, so the first few steps are a plain linear probe; a skewed gap that
/// would cost thousands of per-element steps instead widens exponentially
/// and finishes with a binary search inside the overshot window —
/// O(log gap) worst case without giving up the tight-loop common case.
#[inline]
fn gallop_while(keys: &[Key], from: usize, too_small: impl Fn(Key) -> bool) -> usize {
    const LINEAR: usize = 8;
    let n = keys.len();
    let mut i = from;
    let lin_end = n.min(from + LINEAR);
    while i < lin_end {
        if !too_small(keys[i]) {
            return i;
        }
        i += 1;
    }
    let mut step = LINEAR;
    loop {
        let next = n.min(i + step);
        if next == i {
            return i;
        }
        if too_small(keys[next - 1]) {
            i = next;
            step <<= 1;
        } else {
            return i + keys[i..next].partition_point(|&k| too_small(k));
        }
    }
}

/// Columnar twin of [`sweep_sorted`]: sweeps two key-sorted
/// [`ColumnBatch`]es and folds the pair checksum over the parallel
/// payload columns. Bit-identical to the AoS sweep on the same logical
/// tuples — both derive per-pair values from [`pair_payload`].
pub fn sweep_columns(
    build: &ColumnBatch,
    probe: &ColumnBatch,
    cond: &JoinCondition,
    work: OutputWork,
) -> (u64, u64) {
    let (bk, bp) = partnered_columns(build, cond);
    let pp = probe.payloads();
    let mut checksum = 0u64;
    let count = match work {
        OutputWork::Count => {
            let fold = CountFold::over(pp.iter().copied());
            sweep_ranges_cols(bk, probe.keys(), cond, |i, r| {
                checksum ^= fold.run(bp[i], r)
            })
        }
        OutputWork::Touch => sweep_ranges_cols(bk, probe.keys(), cond, |i, r| {
            // Four independent XOR lanes break the serial dependence on the
            // accumulator; XOR's commutativity makes the re-association
            // bit-identical to the scalar fold.
            let b = bp[i];
            let window = &pp[r];
            let mut lanes = [0u64; 4];
            let mut chunks = window.chunks_exact(4);
            for c in chunks.by_ref() {
                lanes[0] ^= pair_payload(b, c[0]);
                lanes[1] ^= pair_payload(b, c[1]);
                lanes[2] ^= pair_payload(b, c[2]);
                lanes[3] ^= pair_payload(b, c[3]);
            }
            let mut fold = lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3];
            for &p in chunks.remainder() {
                fold ^= pair_payload(b, p);
            }
            checksum ^= fold;
        }),
    };
    (count, checksum)
}

/// Columnar twin of [`sweep_sorted_each`]: emits every matched pair as
/// `(key, payload)` — the payload is [`pair_payload`], the key comes from
/// the `key_from` side — so the engine's sink path can push straight into
/// an output [`ColumnBatch`] without materializing `Tuple`s.
pub fn sweep_columns_each(
    build: &ColumnBatch,
    probe: &ColumnBatch,
    cond: &JoinCondition,
    key_from: KeyFrom,
    mut emit: impl FnMut(Key, u64),
) -> (u64, u64) {
    let (bk, bp) = partnered_columns(build, cond);
    let pk = probe.keys();
    let pp = probe.payloads();
    let mut checksum = 0u64;
    let count = sweep_ranges_cols(bk, pk, cond, |i, r| {
        let b = bp[i];
        match key_from {
            KeyFrom::Build => {
                let key = bk[i];
                for &p in &pp[r] {
                    let pay = pair_payload(b, p);
                    checksum ^= pay;
                    emit(key, pay);
                }
            }
            KeyFrom::Probe => {
                for j in r {
                    let pay = pair_payload(b, pp[j]);
                    checksum ^= pay;
                    emit(pk[j], pay);
                }
            }
        }
    });
    (count, checksum)
}

/// How many of the sorted `probe_keys`, counted from the end, a sweep against
/// `build` can take before it yields more than `cap` pairs — at least one,
/// so a lone tuple with more partners than that is swept alone. One pass of
/// the columnar kernel that visits no pair: every build tuple opens and
/// closes its partner window in a difference array, whose running sum is
/// each probe tuple's partner count. Exact rather than the chunk's average,
/// because a sorted chunk puts a hot key's tuples side by side.
pub fn tail_within(
    build: &ColumnBatch,
    probe_keys: &[Key],
    cond: &JoinCondition,
    cap: usize,
) -> usize {
    let (bk, _) = partnered_columns(build, cond);
    let mut windows = vec![0i64; probe_keys.len() + 1];
    let pairs = sweep_ranges_cols(bk, probe_keys, cond, |_, r| {
        windows[r.start] += 1;
        windows[r.end] -= 1;
    });
    if pairs <= cap as u64 {
        return probe_keys.len();
    }
    // The partner count of tuple `j` is the sum of `windows[..=j]`; the
    // whole array sums to zero, so walk it down from the end.
    let (mut partners, mut taken, mut keep) = (0i64, 0u64, 0usize);
    for &w in windows[1..].iter().rev() {
        partners -= w;
        taken += partners as u64;
        if keep > 0 && taken > cap as u64 {
            break;
        }
        keep += 1;
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewh_core::{IneqOp, Key};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn tuples(keys: &[Key]) -> Vec<Tuple> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| Tuple::new(k, i as u64))
            .collect()
    }

    fn nested_loop(r1: &[Tuple], r2: &[Tuple], cond: &JoinCondition) -> u64 {
        let mut c = 0;
        for a in r1 {
            for b in r2 {
                if cond.matches(a.key, b.key) {
                    c += 1;
                }
            }
        }
        c
    }

    /// Where a saturated range end would invent (or `a - b` overflow on) a
    /// pair.
    const EXTREMES: [Key; 7] = [Key::MIN, Key::MIN + 1, -1, 0, 1, Key::MAX - 1, Key::MAX];

    #[test]
    fn matches_nested_loop_for_all_conditions() {
        let mut rng = SmallRng::seed_from_u64(5);
        let conds = [
            JoinCondition::Equi,
            JoinCondition::Band { beta: 0 },
            JoinCondition::Band { beta: 4 },
            JoinCondition::Inequality(IneqOp::Lt),
            JoinCondition::Inequality(IneqOp::Le),
            JoinCondition::Inequality(IneqOp::Gt),
            JoinCondition::Inequality(IneqOp::Ge),
            JoinCondition::EquiBand { shift: 8, beta: 2 },
        ];
        for cond in conds {
            let k1: Vec<Key> = (0..300).map(|_| rng.gen_range(0..64)).collect();
            let k2: Vec<Key> = (0..300).map(|_| rng.gen_range(0..64)).collect();
            let mut r1 = tuples(&k1);
            let mut r2 = tuples(&k2);
            let expect = nested_loop(&r1, &r2, &cond);
            let (got, _) = local_join(&mut r1, &mut r2, &cond, OutputWork::Touch);
            assert_eq!(got, expect, "{cond:?}");
            let (mut r1, mut r2) = (tuples(&EXTREMES), tuples(&EXTREMES));
            let expect = nested_loop(&r1, &r2, &cond);
            let (got, _) = local_join(&mut r1, &mut r2, &cond, OutputWork::Touch);
            assert_eq!(got, expect, "{cond:?} at the key extremes");
        }
    }

    #[test]
    fn chunked_probe_sweeps_equal_one_shot_join() {
        // The pipelined engine joins a region's sorted R1 against the probe
        // side one chunk at a time; the pair set partitions across chunks, so
        // counts add and checksums XOR to the one-shot result.
        let mut rng = SmallRng::seed_from_u64(11);
        let conds = [
            JoinCondition::Equi,
            JoinCondition::Band { beta: 3 },
            JoinCondition::Inequality(IneqOp::Le),
            JoinCondition::EquiBand { shift: 16, beta: 2 },
        ];
        for cond in conds {
            let k1: Vec<Key> = (0..500).map(|_| rng.gen_range(0..80)).collect();
            let k2: Vec<Key> = (0..500).map(|_| rng.gen_range(0..80)).collect();
            let mut r1 = tuples(&k1);
            let mut r2 = tuples(&k2);
            let (expect_c, expect_s) = local_join(&mut r1, &mut r2, &cond, OutputWork::Touch);

            // r1 is now sorted; probe it with unsorted chunks of varied size.
            let probe = tuples(&k2);
            let (mut count, mut checksum) = (0u64, 0u64);
            for chunk in probe.chunks(37) {
                let mut chunk = chunk.to_vec();
                chunk.sort_unstable_by_key(|t| t.key);
                let (c, s) = sweep_sorted(&r1, &chunk, &cond, OutputWork::Touch);
                count += c;
                checksum ^= s;
            }
            assert_eq!(count, expect_c, "{cond:?}");
            assert_eq!(checksum, expect_s, "{cond:?}");
        }
    }

    #[test]
    fn checksum_is_order_invariant() {
        // XOR-fold must not depend on tuple arrival order (parallel shuffles
        // deliver in nondeterministic order).
        let mut r1a = tuples(&[5, 1, 3, 3]);
        let mut r2a = tuples(&[2, 4, 3]);
        let mut r1b = r1a.clone();
        r1b.reverse();
        let mut r2b = r2a.clone();
        r2b.reverse();
        let cond = JoinCondition::Band { beta: 1 };
        let (ca, sa) = local_join(&mut r1a, &mut r2a, &cond, OutputWork::Touch);
        let (cb, sb) = local_join(&mut r1b, &mut r2b, &cond, OutputWork::Touch);
        assert_eq!(ca, cb);
        assert_eq!(sa, sb);
    }

    #[test]
    fn emitting_sweep_matches_touch_sweep_and_keys_by_side() {
        let mut rng = SmallRng::seed_from_u64(17);
        let k1: Vec<Key> = (0..300).map(|_| rng.gen_range(0..50)).collect();
        let k2: Vec<Key> = (0..300).map(|_| rng.gen_range(0..50)).collect();
        let mut r1 = tuples(&k1);
        let mut r2 = tuples(&k2);
        let cond = JoinCondition::Band { beta: 1 };
        let (expect_c, expect_s) = local_join(&mut r1, &mut r2, &cond, OutputWork::Touch);

        for key_from in [KeyFrom::Build, KeyFrom::Probe] {
            let mut out = Vec::new();
            let (c, s) = sweep_sorted_into(&r1, &r2, &cond, key_from, &mut out);
            assert_eq!(c, expect_c);
            assert_eq!(s, expect_s);
            assert_eq!(out.len() as u64, expect_c);
            // The checksum is exactly the XOR of the emitted payloads.
            assert_eq!(out.iter().fold(0u64, |a, t| a ^ t.payload), expect_s);
            // Every emitted key exists on the side it was taken from.
            let side = match key_from {
                KeyFrom::Build => &r1,
                KeyFrom::Probe => &r2,
            };
            assert!(out
                .iter()
                .all(|t| side.binary_search_by_key(&t.key, |s| s.key).is_ok()));
        }
    }

    #[test]
    fn count_mode_folds_partner_parity() {
        // Count's checksum is the XOR over matched pairs of the two tuples'
        // tags — the tags of the tuples with an odd partner count — whatever
        // the chunking, on both kernels, without visiting a pair.
        let mut rng = SmallRng::seed_from_u64(23);
        let k1: Vec<Key> = (0..200).map(|_| rng.gen_range(0..30)).collect();
        let k2: Vec<Key> = (0..200).map(|_| rng.gen_range(0..30)).collect();
        for cond in [JoinCondition::Equi, JoinCondition::Band { beta: 2 }] {
            let (mut r1, mut r2) = (tuples(&k1), tuples(&k2));
            let (mut count, mut expect) = (0u64, 0u64);
            for (a, b) in r1.iter().flat_map(|a| r2.iter().map(move |b| (a, b))) {
                if cond.matches(a.key, b.key) {
                    count += 1;
                    expect ^= pair_tag(a.payload, b.payload);
                }
            }
            assert_ne!(expect, 0);
            assert_eq!(
                local_join(&mut r1, &mut r2, &cond, OutputWork::Count),
                (count, expect)
            );
            let build = ColumnBatch::from_tuples(&r1);
            let (mut c, mut s) = (0u64, 0u64);
            for chunk in r2.chunks(37) {
                let probe = ColumnBatch::from_tuples(chunk);
                let (cc, ss) = sweep_columns(&build, &probe, &cond, OutputWork::Count);
                c += cc;
                s ^= ss;
            }
            assert_eq!((c, s), (count, expect), "{cond:?}");
        }
    }

    #[test]
    fn empty_sides() {
        let cond = JoinCondition::Band { beta: 2 };
        let (c, _) = local_join(&mut [], &mut tuples(&[1, 2]), &cond, OutputWork::Touch);
        assert_eq!(c, 0);
        let (c, _) = local_join(&mut tuples(&[1, 2]), &mut [], &cond, OutputWork::Touch);
        assert_eq!(c, 0);
    }

    #[test]
    fn columnar_sweep_matches_aos_sweep_for_all_conditions() {
        let mut rng = SmallRng::seed_from_u64(23);
        let conds = [
            JoinCondition::Equi,
            JoinCondition::Band { beta: 0 },
            JoinCondition::Band { beta: 4 },
            JoinCondition::Inequality(IneqOp::Lt),
            JoinCondition::Inequality(IneqOp::Ge),
            JoinCondition::EquiBand { shift: 8, beta: 2 },
        ];
        // Dense sides, then the shape the engine sweeps — one probe chunk
        // against a whole region's build — where the columnar kernel leaps
        // over the build keys between matches; last (`None`) the key
        // extremes on both sides, where both kernels also face the oracle.
        for shape in [Some((400, 400, 70)), Some((30_000, 256, 30_000)), None] {
            for cond in conds {
                let (k1, k2): (Vec<Key>, Vec<Key>) = match shape {
                    Some((n1, n2, domain)) => {
                        let mut draw = |n| (0..n).map(|_| rng.gen_range(0..domain)).collect();
                        (draw(n1), draw(n2))
                    }
                    None => (EXTREMES.to_vec(), EXTREMES.to_vec()),
                };
                let mut r1 = tuples(&k1);
                let mut r2 = tuples(&k2);
                r1.sort_unstable_by_key(|t| t.key);
                r2.sort_unstable_by_key(|t| t.key);
                let (expect_c, expect_s) = sweep_sorted(&r1, &r2, &cond, OutputWork::Touch);
                if shape.is_none() {
                    assert_eq!(expect_c, nested_loop(&r1, &r2, &cond), "{cond:?}");
                }

                let b1 = ColumnBatch::from_tuples(&r1);
                let b2 = ColumnBatch::from_tuples(&r2);
                let (c, s) = sweep_columns(&b1, &b2, &cond, OutputWork::Touch);
                assert_eq!(c, expect_c, "{cond:?} {shape:?}");
                assert_eq!(s, expect_s, "{cond:?} {shape:?}");
                let counted = sweep_columns(&b1, &b2, &cond, OutputWork::Count);
                let expect = sweep_sorted(&r1, &r2, &cond, OutputWork::Count);
                assert_eq!(counted, expect, "{cond:?} {shape:?}");
                assert_eq!(counted.0, expect_c, "{cond:?} {shape:?}");
            }
        }
    }

    #[test]
    fn columnar_emitting_sweep_matches_aos_emitting_sweep() {
        let mut rng = SmallRng::seed_from_u64(29);
        let k1: Vec<Key> = (0..300).map(|_| rng.gen_range(0..40)).collect();
        let k2: Vec<Key> = (0..300).map(|_| rng.gen_range(0..40)).collect();
        let mut r1 = tuples(&k1);
        let mut r2 = tuples(&k2);
        r1.sort_unstable_by_key(|t| t.key);
        r2.sort_unstable_by_key(|t| t.key);
        let cond = JoinCondition::Band { beta: 2 };
        for key_from in [KeyFrom::Build, KeyFrom::Probe] {
            let mut expect = Vec::new();
            let (expect_c, expect_s) = sweep_sorted_into(&r1, &r2, &cond, key_from, &mut expect);

            let b1 = ColumnBatch::from_tuples(&r1);
            let b2 = ColumnBatch::from_tuples(&r2);
            let mut out = ColumnBatch::new();
            let (c, s) = sweep_columns_each(&b1, &b2, &cond, key_from, |k, p| out.push(k, p));
            assert_eq!(c, expect_c);
            assert_eq!(s, expect_s);
            assert_eq!(out.to_tuples(), expect, "same pairs in the same order");
        }
    }

    #[test]
    fn tail_within_is_the_longest_tail_under_the_cap() {
        let mut rng = SmallRng::seed_from_u64(31);
        let conds = [
            JoinCondition::Equi,
            JoinCondition::Band { beta: 3 },
            JoinCondition::Inequality(IneqOp::Le),
            JoinCondition::EquiBand { shift: 8, beta: 2 },
        ];
        for cond in conds {
            // A hot key among cold ones, so partner counts are far from even.
            let mut k1: Vec<Key> = (0..300).map(|_| rng.gen_range(0..60)).collect();
            let mut k2: Vec<Key> = (0..200).map(|_| rng.gen_range(0..60)).collect();
            k1.extend([30; 80]);
            k2.extend([30; 40]);
            k1.sort_unstable();
            k2.sort_unstable();
            let build = ColumnBatch::from_tuples(&tuples(&k1));
            let pairs_of = |tail: &[Key]| nested_loop(&tuples(&k1), &tuples(tail), &cond);
            for cap in [0, 1, 50, 1000, 5000, usize::MAX] {
                let keep = tail_within(&build, &k2, &cond, cap);
                assert!((1..=k2.len()).contains(&keep), "{cond:?} cap {cap}");
                let taken = pairs_of(&k2[k2.len() - keep..]);
                assert!(keep == 1 || taken <= cap as u64, "{cond:?} cap {cap}");
                if keep < k2.len() {
                    let one_more = pairs_of(&k2[k2.len() - keep - 1..]);
                    assert!(one_more > cap as u64, "{cond:?} cap {cap}");
                }
            }
        }
        assert_eq!(tail_within(&ColumnBatch::new(), &[], &conds[0], 8), 0);
    }

    #[test]
    fn pair_payload_is_the_output_tuple_contract() {
        let b = Tuple::new(1, 0xDEAD);
        let p = Tuple::new(2, 0xBEEF);
        assert_eq!(
            output_tuple(&b, &p, KeyFrom::Build).payload,
            pair_payload(0xDEAD, 0xBEEF)
        );
        assert_eq!(pair_payload(3, 4), 3u64.wrapping_mul(31).wrapping_add(4));
    }
}
