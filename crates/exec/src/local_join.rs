//! The per-worker local join.
//!
//! The paper's scheme is orthogonal to the local algorithm (§IV, "as long as
//! all the machines run the same algorithm"), and every path here runs the
//! same one: a sort + sliding-window sweep that handles every supported
//! monotonic condition in `O(n log n + output)`. After sorting both sides by
//! key, the joinable range `jr(a)` has non-decreasing endpoints in `a`, so
//! two cursors sweep `R2` once. There is one staircase (`sweep_ranges_cols`,
//! over key columns) behind three entry points: [`sweep_columns`] and
//! [`sweep_columns_each`], which the engine's reducers call per probe chunk
//! and the batch oracle once per region (`join_region`), and
//! [`tail_within`], which sizes a sink-bound sweep.
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

/// The part of a key-sorted build column the staircase holds on: the keys
/// that have a partner at all ([`JoinCondition::partnered_keys`]). The
/// others — `Key::MAX` under `<`, `Key::MIN` under `>` — sit at its ends,
/// and no key is read unless the condition has such keys.
fn partnered(keys: &[Key], cond: &JoinCondition) -> Range<usize> {
    let live = cond.partnered_keys();
    let (mut first, mut last) = (0, keys.len());
    if live != KeyRange::full() {
        while first < last && keys[first] < live.lo {
            first += 1;
        }
        while first < last && keys[last - 1] > live.hi {
            last -= 1;
        }
    }
    first..last
}

/// The staircase kernel, over bare key columns. The cursor walks and binary
/// searches touch only `Key` slices (half the bytes per element of a
/// `Tuple` scan), and each build-side match is reported as an *index range*
/// of probe positions so callers fold the parallel payload column in tight
/// contiguous loops the compiler can autovectorize.
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
    let live = partnered(build.keys(), cond);
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

/// Sweeps two key-sorted [`ColumnBatch`]es and folds the pair checksum over
/// the parallel payload columns: per pair [`pair_payload`] under
/// [`OutputWork::Touch`], [`pair_tag`] under [`OutputWork::Count`].
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

/// Sweeps like [`sweep_columns`] under [`OutputWork::Touch`] and *emits*
/// every matched pair as `(key, payload)`: the payload is [`pair_payload`]
/// (so the checksum is the XOR of the emitted payloads), the key comes from
/// the `key_from` side. The engine's sink path pushes them straight into an
/// output [`ColumnBatch`]; the batch oracle into its materialized
/// intermediate.
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

/// The batch oracle's join of one region, on the engine's kernels: each
/// row bucket is transposed into columns and dropped (a side is never held
/// in both layouts), sorted with [`ColumnBatch::sort_by_key`] and swept as
/// a reducer sweeps — [`sweep_columns`] under `work`, or, when the output
/// feeds a next stage, [`sweep_columns_each`] pushing every pair onto
/// `emit`'s vector. Returns `(output_count, checksum)`.
pub(crate) fn join_region(
    r1: Vec<Tuple>,
    r2: Vec<Tuple>,
    cond: &JoinCondition,
    work: OutputWork,
    emit: Option<(KeyFrom, &mut Vec<Tuple>)>,
) -> (u64, u64) {
    let sorted = |bucket: Vec<Tuple>| {
        let mut cols = ColumnBatch::from_tuples(&bucket);
        drop(bucket);
        cols.sort_by_key();
        cols
    };
    let (build, probe) = (sorted(r1), sorted(r2));
    match emit {
        None => sweep_columns(&build, &probe, cond, work),
        Some((key_from, out)) => sweep_columns_each(&build, &probe, cond, key_from, |k, p| {
            out.push(Tuple::new(k, p))
        }),
    }
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

    /// `tuples(keys)` in columns, sorted as a side is before its sweep.
    fn sorted(keys: &[Key]) -> ColumnBatch {
        let mut side = ColumnBatch::from_tuples(&tuples(keys));
        side.sort_by_key();
        side
    }

    /// The nested-loop join: its pair count, and its checksums under
    /// [`OutputWork::Touch`] and [`OutputWork::Count`].
    fn nested_loop(r1: &[Tuple], r2: &[Tuple], cond: &JoinCondition) -> (u64, u64, u64) {
        let (mut count, mut touch, mut tags) = (0, 0, 0);
        for a in r1 {
            for b in r2 {
                if cond.matches(a.key, b.key) {
                    count += 1;
                    touch ^= pair_payload(a.payload, b.payload);
                    tags ^= pair_tag(a.payload, b.payload);
                }
            }
        }
        (count, touch, tags)
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
            for (k1, k2, at) in [
                (&k1[..], &k2[..], "random"),
                (&EXTREMES, &EXTREMES, "extremes"),
            ] {
                let (count, touch, _) = nested_loop(&tuples(k1), &tuples(k2), &cond);
                let got = sweep_columns(&sorted(k1), &sorted(k2), &cond, OutputWork::Touch);
                assert_eq!(got, (count, touch), "{cond:?} at the {at} keys");
            }
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
            let build = sorted(&k1);
            let expect = sweep_columns(&build, &sorted(&k2), &cond, OutputWork::Touch);

            // Probe in arrival order, in chunks of varied size, each sorted.
            let (mut count, mut checksum) = (0u64, 0u64);
            for chunk in tuples(&k2).chunks(37) {
                let mut chunk = ColumnBatch::from_tuples(chunk);
                chunk.sort_by_key();
                let (c, s) = sweep_columns(&build, &chunk, &cond, OutputWork::Touch);
                count += c;
                checksum ^= s;
            }
            assert_eq!((count, checksum), expect, "{cond:?}");
        }
    }

    #[test]
    fn checksum_is_order_invariant() {
        // XOR-fold must not depend on tuple arrival order (parallel shuffles
        // deliver in nondeterministic order).
        let (k1, k2) = ([5, 1, 3, 3], [2, 4, 3]);
        let reversed = |keys: &[Key]| {
            let mut arrival = tuples(keys);
            arrival.reverse();
            let mut side = ColumnBatch::from_tuples(&arrival);
            side.sort_by_key();
            side
        };
        let cond = JoinCondition::Band { beta: 1 };
        for work in [OutputWork::Touch, OutputWork::Count] {
            let forward = sweep_columns(&sorted(&k1), &sorted(&k2), &cond, work);
            assert_ne!(forward.0, 0);
            let backward = sweep_columns(&reversed(&k1), &reversed(&k2), &cond, work);
            assert_eq!(forward, backward, "{work:?}");
        }
    }

    #[test]
    fn emitting_sweep_matches_touch_sweep_and_keys_by_side() {
        let mut rng = SmallRng::seed_from_u64(17);
        let k1: Vec<Key> = (0..300).map(|_| rng.gen_range(0..50)).collect();
        let k2: Vec<Key> = (0..300).map(|_| rng.gen_range(0..50)).collect();
        let (build, probe) = (sorted(&k1), sorted(&k2));
        let cond = JoinCondition::Band { beta: 1 };
        let (expect_c, expect_s) = sweep_columns(&build, &probe, &cond, OutputWork::Touch);

        for key_from in [KeyFrom::Build, KeyFrom::Probe] {
            let mut out = Vec::new();
            let (c, s) = sweep_columns_each(&build, &probe, &cond, key_from, |k, p| {
                out.push(Tuple::new(k, p))
            });
            assert_eq!((c, s), (expect_c, expect_s));
            assert_eq!(out.len() as u64, expect_c);
            // The checksum is exactly the XOR of the emitted payloads.
            assert_eq!(out.iter().fold(0u64, |a, t| a ^ t.payload), expect_s);
            // Every emitted key exists on the side it was taken from.
            let side = match key_from {
                KeyFrom::Build => build.keys(),
                KeyFrom::Probe => probe.keys(),
            };
            assert!(out.iter().all(|t| side.binary_search(&t.key).is_ok()));
            // The batch oracle's region join emits the same pairs, and like
            // a reducer with a sink folds the emitted payloads whatever
            // `work` asks for.
            let mut joined = Vec::new();
            let emit = Some((key_from, &mut joined));
            let got = join_region(tuples(&k1), tuples(&k2), &cond, OutputWork::Count, emit);
            assert_eq!((got, joined), ((c, s), out));
        }
    }

    #[test]
    fn count_mode_folds_partner_parity() {
        // Count's checksum is the XOR over matched pairs of the two tuples'
        // tags — the tags of the tuples with an odd partner count — whatever
        // the chunking, without visiting a pair.
        let mut rng = SmallRng::seed_from_u64(23);
        let k1: Vec<Key> = (0..200).map(|_| rng.gen_range(0..30)).collect();
        let k2: Vec<Key> = (0..200).map(|_| rng.gen_range(0..30)).collect();
        for cond in [JoinCondition::Equi, JoinCondition::Band { beta: 2 }] {
            let (count, _, expect) = nested_loop(&tuples(&k1), &tuples(&k2), &cond);
            assert_ne!(expect, 0);
            let build = sorted(&k1);
            let whole = sweep_columns(&build, &sorted(&k2), &cond, OutputWork::Count);
            assert_eq!(whole, (count, expect), "{cond:?}");
            let (mut c, mut s) = (0u64, 0u64);
            for chunk in tuples(&k2).chunks(37) {
                let mut probe = ColumnBatch::from_tuples(chunk);
                probe.sort_by_key();
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
        let (none, some) = (ColumnBatch::new(), sorted(&[1, 2]));
        for work in [OutputWork::Touch, OutputWork::Count] {
            assert_eq!(sweep_columns(&none, &some, &cond, work), (0, 0));
            assert_eq!(sweep_columns(&some, &none, &cond, work), (0, 0));
            assert_eq!(
                join_region(vec![], tuples(&[1, 2]), &cond, work, None),
                (0, 0)
            );
            assert_eq!(
                join_region(tuples(&[1, 2]), vec![], &cond, work, None),
                (0, 0)
            );
        }
        let mut out = Vec::new();
        let each = sweep_columns_each(&none, &some, &cond, KeyFrom::Probe, |k, p| out.push((k, p)));
        assert_eq!((each, out.len()), ((0, 0), 0));
    }

    #[test]
    fn columnar_sweep_matches_a_nested_loop_on_every_shape() {
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
        // against a whole region's build — where the kernel leaps over the
        // build keys between matches; last (`None`) the key extremes on both
        // sides.
        for shape in [Some((400, 400, 70)), Some((30_000, 256, 30_000)), None] {
            for cond in conds {
                let (k1, k2): (Vec<Key>, Vec<Key>) = match shape {
                    Some((n1, n2, domain)) => {
                        let mut draw = |n| (0..n).map(|_| rng.gen_range(0..domain)).collect();
                        (draw(n1), draw(n2))
                    }
                    None => (EXTREMES.to_vec(), EXTREMES.to_vec()),
                };
                let (count, touch, tags) = nested_loop(&tuples(&k1), &tuples(&k2), &cond);
                let (b1, b2) = (sorted(&k1), sorted(&k2));
                let touched = sweep_columns(&b1, &b2, &cond, OutputWork::Touch);
                assert_eq!(touched, (count, touch), "{cond:?} {shape:?}");
                let counted = sweep_columns(&b1, &b2, &cond, OutputWork::Count);
                assert_eq!(counted, (count, tags), "{cond:?} {shape:?}");
            }
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
            let pairs_of = |tail: &[Key]| nested_loop(&tuples(&k1), &tuples(tail), &cond).0;
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
        assert_eq!(pair_payload(3, 4), 3u64.wrapping_mul(31).wrapping_add(4));
        // An emitted pair carries that payload, keyed by the side asked for.
        let build = ColumnBatch::from_tuples(&[Tuple::new(1, 0xDEAD)]);
        let probe = ColumnBatch::from_tuples(&[Tuple::new(2, 0xBEEF)]);
        let cond = JoinCondition::Band { beta: 1 };
        for (key_from, key) in [(KeyFrom::Build, 1), (KeyFrom::Probe, 2)] {
            let mut out = Vec::new();
            sweep_columns_each(&build, &probe, &cond, key_from, |k, p| out.push((k, p)));
            assert_eq!(out, [(key, pair_payload(0xDEAD, 0xBEEF))]);
        }
    }
}
