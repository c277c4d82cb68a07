//! What a scan-fed query allocates, counted by a global allocator over the
//! system one, in this test binary only. A relation of `n` tuples reaches
//! the engine as the caller's slice; a block of `n · 8` bytes or more is a
//! whole column of it. The claims, on a runtime that has served a query
//! before:
//!
//! * under CI, which reads no key, a query allocates no such block: each
//!   mapper transposes only the morsel it claims into its own columns;
//! * under CSIO, at most one such block per census side. A side reads its
//!   keys off the tuples. A sorted side is run-length encoded as read, and
//!   an unsorted side over a span under `2n` is counted into one `u32`
//!   slot per key of the span: neither allocates a column. Only an
//!   unsorted side over a wider span is collected into one column, sorted
//!   in place.
//!
//! A census stores each multiplicity once, as a step of its prefix sums:
//! over `n` distinct sorted keys it allocates two blocks of a column's
//! size, the keys and the prefix, and no third array of counts.
//!
//! Keys come from a domain of `n / 8` values, so no census's run arrays and
//! no region of the eight reach the size of a column, and the dense slots
//! of a side keyed `0..n / 8` take a sixteenth of one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ewh_core::{JoinCondition, Key, SchemeKind, Tuple};
use ewh_exec::{run_operator, EngineRuntime, OperatorConfig};
use ewh_sampling::KeyedCounts;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Counts every allocation or reallocation of at least `THRESHOLD` bytes.
struct Counting;

static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size >= THRESHOLD.load(Ordering::Relaxed) {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each call meets `System`'s contract exactly when it meets the
// `GlobalAlloc` contract its caller already upholds; counting touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is non-zero-sized (trait contract).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; `new_size` is valid for it (trait contract).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout` (trait contract).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counter is process-wide: one claim at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const N: usize = 1 << 16;

/// `R1` key-sorted and `R2` in random order, like `bicd_csio`'s inputs, so
/// a census's sorted and dense paths both run.
fn relations() -> (Vec<Tuple>, Vec<Tuple>) {
    drawn(1, true)
}

/// Both sides in random order over a span of about `n / 8 · 10⁶`, so both
/// censuses take the wide path.
fn wide_relations() -> (Vec<Tuple>, Vec<Tuple>) {
    drawn(1_000_003, false)
}

/// Two relations keyed `spread ·` a draw from `0..n / 8`, `R1` key-sorted
/// if `sort_r1`.
fn drawn(spread: Key, sort_r1: bool) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut rng = SmallRng::seed_from_u64(0xA110C);
    let mut draw = || -> Vec<Key> {
        (0..N)
            .map(|_| rng.gen_range(0..(N / 8) as Key) * spread)
            .collect()
    };
    let mut k1 = draw();
    if sort_r1 {
        k1.sort_unstable();
    }
    let k2 = draw();
    let tuples = |keys: Vec<Key>| -> Vec<Tuple> {
        keys.into_iter()
            .enumerate()
            .map(|(i, k)| Tuple::new(k, i as u64))
            .collect()
    };
    (tuples(k1), tuples(k2))
}

/// Blocks of at least a key column's size that the second of two equal
/// queries over [`relations`] allocates.
fn column_blocks(kind: SchemeKind) -> usize {
    column_blocks_over(kind, relations)
}

/// Blocks of at least a key column's size that the second of two equal
/// queries over the drawn relations allocates.
fn column_blocks_over(kind: SchemeKind, draw: fn() -> (Vec<Tuple>, Vec<Tuple>)) -> usize {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (r1, r2) = draw();
    let cond = JoinCondition::Band { beta: 1 };
    let cfg = OperatorConfig {
        j: 8,
        threads: 2,
        ..Default::default()
    };
    let rt = EngineRuntime::new(2);
    let warm = run_operator(&rt, kind, &r1, &r2, &cond, &cfg);
    LARGE.store(0, Ordering::SeqCst);
    THRESHOLD.store(N * 8, Ordering::SeqCst);
    let run = run_operator(&rt, kind, &r1, &r2, &cond, &cfg);
    THRESHOLD.store(usize::MAX, Ordering::SeqCst);
    assert!(run.join.output_total > 0);
    assert_eq!(
        (run.join.output_total, run.join.checksum),
        (warm.join.output_total, warm.join.checksum)
    );
    LARGE.load(Ordering::SeqCst)
}

#[test]
fn a_ci_query_allocates_no_block_the_size_of_a_column() {
    assert_eq!(column_blocks(SchemeKind::Ci), 0);
}

#[test]
fn a_csio_query_allocates_at_most_one_column_per_census_side() {
    let blocks = column_blocks(SchemeKind::Csio);
    assert!(blocks <= 2, "{blocks} blocks of a column's size");
}

#[test]
fn a_csio_query_over_a_sorted_and_a_dense_side_allocates_no_column() {
    assert_eq!(column_blocks(SchemeKind::Csio), 0);
}

#[test]
fn a_csio_query_over_wide_unsorted_relations_allocates_one_column_per_census_side() {
    let blocks = column_blocks_over(SchemeKind::Csio, wide_relations);
    assert!(blocks <= 2, "{blocks} blocks of a column's size");
}

#[test]
fn a_census_of_distinct_sorted_keys_allocates_two_run_arrays() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let keys: Vec<Key> = (0..N as Key).collect();
    LARGE.store(0, Ordering::SeqCst);
    THRESHOLD.store(N * 8, Ordering::SeqCst);
    let census = KeyedCounts::census(&keys);
    THRESHOLD.store(usize::MAX, Ordering::SeqCst);
    assert_eq!((census.num_distinct(), census.total()), (N, N as u64));
    assert_eq!(LARGE.load(Ordering::SeqCst), 2, "blocks of a column's size");
}
