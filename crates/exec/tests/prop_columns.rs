//! Property-based correctness of the columnar tuple layout: any tuple
//! sequence round-trips `Vec<Tuple>` → `ColumnBatch` → `Vec<Tuple>`
//! losslessly, the permutation sort matches the AoS stable sort exactly
//! (order included), gather/split/truncate mirror their `Vec` twins, and
//! the columnar spill format (count prefix + key slab + payload slab)
//! replays any batch bit-identically through a real `SpillContext`.

use ewh_core::{ColumnBatch, Key, Tuple, TUPLE_BYTES};
use ewh_exec::SpillContext;
use proptest::prelude::*;

fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    (any::<i64>(), any::<u64>()).prop_map(|(k, p)| Tuple::new(k, p))
}

fn tuples_strategy(max_len: usize) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec(tuple_strategy(), 0..max_len)
}

proptest! {
    #[test]
    fn tuples_round_trip_through_columns(tuples in tuples_strategy(300)) {
        let batch = ColumnBatch::from_tuples(&tuples);
        prop_assert_eq!(batch.len(), tuples.len());
        prop_assert_eq!(batch.to_tuples(), tuples.clone());
        // Column views agree with the struct view position by position.
        for (i, t) in tuples.iter().enumerate() {
            prop_assert_eq!(batch.keys()[i], t.key);
            prop_assert_eq!(batch.payloads()[i], t.payload);
            prop_assert_eq!(batch.tuple(i), *t);
        }
        let collected: ColumnBatch = tuples.iter().copied().collect();
        prop_assert_eq!(collected, batch);
    }

    #[test]
    fn permutation_sort_matches_the_stable_aos_sort(
        // A narrow key domain forces duplicate keys, so stability (ties
        // keep arrival order) is genuinely exercised.
        keys in prop::collection::vec(-20i64..20, 0..300)
    ) {
        let tuples: Vec<Tuple> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Tuple::new(k, i as u64))
            .collect();
        let mut batch = ColumnBatch::from_tuples(&tuples);
        batch.sort_by_key();
        let mut expect = tuples;
        expect.sort_by_key(|t| t.key);
        prop_assert!(batch.is_sorted_by_key());
        prop_assert_eq!(batch.to_tuples(), expect);
    }

    #[test]
    fn split_and_truncate_mirror_vec_semantics(
        tuples in tuples_strategy(200),
        at_pct in 0usize..=100,
    ) {
        let at = tuples.len() * at_pct / 100;
        let mut batch = ColumnBatch::from_tuples(&tuples);
        let tail = batch.split_off(at);
        prop_assert_eq!(batch.to_tuples(), tuples[..at].to_vec());
        prop_assert_eq!(tail.to_tuples(), tuples[at..].to_vec());

        let mut again = ColumnBatch::from_tuples(&tuples);
        again.truncate(at);
        prop_assert_eq!(again.to_tuples(), tuples[..at].to_vec());
    }

    #[test]
    fn gather_picks_the_indexed_tuples(
        tuples in prop::collection::vec(tuple_strategy(), 1..100),
        raw_indices in prop::collection::vec(any::<u32>(), 0..150),
    ) {
        let indices: Vec<u32> = raw_indices
            .into_iter()
            .map(|i| i % tuples.len() as u32)
            .collect();
        let batch = ColumnBatch::from_tuples(&tuples);
        let gathered = batch.gather(&indices);
        let expect: Vec<Tuple> = indices.iter().map(|&i| tuples[i as usize]).collect();
        prop_assert_eq!(gathered.to_tuples(), expect);
    }

    #[test]
    fn spill_runs_replay_any_batch_bit_identically(tuples in tuples_strategy(400)) {
        let dir = std::env::temp_dir().join(format!(
            "ewh-prop-columns-{}-{}",
            std::process::id(),
            tuples.len(),
        ));
        let ctx = SpillContext::new(dir.clone(), None);
        let batch = ColumnBatch::from_tuples(&tuples);
        let run = ctx.write_batch(&batch).expect("spill write failed");
        prop_assert_eq!(run.tuples(), tuples.len() as u64);
        // Accounting is exact per-column bytes: 8-byte count prefix plus
        // 16 bytes (one key + one payload) per tuple.
        prop_assert_eq!(ctx.totals().bytes, 8 + tuples.len() as u64 * TUPLE_BYTES);
        let replayed = ctx.read_run(&run).expect("spill read failed");
        prop_assert_eq!(replayed, batch);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The columnar layout is the engine-side representation; `Vec<Tuple>`
/// remains the oracle's. This pin keeps the two convertible without loss
/// at the extremes of the key/payload domains.
#[test]
fn extreme_values_survive_the_transpose() {
    let tuples = vec![
        Tuple::new(Key::MIN, u64::MAX),
        Tuple::new(Key::MAX, 0),
        Tuple::new(0, u64::MAX / 2),
    ];
    let batch = ColumnBatch::from_tuples(&tuples);
    assert_eq!(batch.to_tuples(), tuples);
}
