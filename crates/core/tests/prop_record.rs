//! The batch codec (`encode_record` / `decode_record`) against the layout it
//! replaced, written out here one element at a time as the oracle: a `u64`
//! LE count, each key as `i64` LE, then each payload as `u64` LE. Spill
//! records and wire frames are this layout, so a byte that moves here moves
//! in both.
//!
//! The properties, over random batches of up to a few thousand tuples whose
//! keys include `Key::MIN` and `Key::MAX`:
//!
//! * encoding writes exactly the oracle's bytes, appended after whatever
//!   the buffer already holds, and `record_len` is their length;
//! * decoding gives the batch back bit for bit into a donated batch of any
//!   capacity and any stale contents;
//! * any truncation, any extension and any other count is an `Err`, never
//!   a panic.

use ewh_core::{decode_record, encode_record, record_len, ColumnBatch, Key};
use proptest::prelude::*;

/// The record layout one element at a time.
fn oracle(batch: &ColumnBatch) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(batch.len() as u64).to_le_bytes());
    for &k in batch.keys() {
        out.extend_from_slice(&k.to_le_bytes());
    }
    for &p in batch.payloads() {
        out.extend_from_slice(&p.to_le_bytes());
    }
    out
}

fn encoded(batch: &ColumnBatch) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record(&mut out, batch.keys(), batch.payloads());
    out
}

fn batch_strategy(max_len: usize) -> impl Strategy<Value = ColumnBatch> {
    prop::collection::vec(
        (
            prop_oneof![
                Just(Key::MIN),
                Just(Key::MAX),
                Just(0i64),
                Just(-1i64),
                any::<i64>(),
            ],
            any::<u64>(),
        ),
        0..max_len,
    )
    .prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(k, p)| ewh_core::Tuple::new(k, p))
            .collect()
    })
}

/// A donation of `cap` tuples' room holding `stale` tuples of garbage.
fn donation(cap: usize, stale: usize) -> ColumnBatch {
    let mut into = ColumnBatch::with_capacity(cap);
    for i in 0..stale.min(cap) {
        into.push(i as Key ^ 0x5A5A, u64::MAX - i as u64);
    }
    into
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn a_record_is_the_per_element_layout_and_decodes_bit_identically(
        batch in batch_strategy(3000),
        junk in prop::collection::vec(any::<u8>(), 0..24),
        cap in 0usize..4000,
        stale in 0usize..64,
    ) {
        let expect = oracle(&batch);
        prop_assert_eq!(&encoded(&batch), &expect);
        prop_assert_eq!(record_len(batch.len() as u64), Some(expect.len() as u64));
        // Appended after what the buffer holds, untouched.
        let mut appended = junk.clone();
        encode_record(&mut appended, batch.keys(), batch.payloads());
        prop_assert_eq!(&appended[..junk.len()], &junk[..]);
        prop_assert_eq!(&appended[junk.len()..], &expect[..]);
        let back = decode_record(&expect, donation(cap, stale)).expect("an intact record");
        prop_assert_eq!(&back, &batch);
    }

    #[test]
    fn a_truncated_extended_or_miscounted_record_is_an_error(
        batch in batch_strategy(48),
        big in batch_strategy(3000),
        tail in prop::collection::vec(any::<u8>(), 1..40),
        count in prop_oneof![any::<u64>(), 0u64..64, Just(u64::MAX / 16), Just(u64::MAX)],
        cut in any::<usize>(),
    ) {
        let bytes = encoded(&batch);
        for end in 0..bytes.len() {
            prop_assert!(decode_record(&bytes[..end], ColumnBatch::new()).is_err(), "cut at {}", end);
        }
        let big_bytes = encoded(&big);
        let end = cut % big_bytes.len();
        prop_assert!(decode_record(&big_bytes[..end], ColumnBatch::new()).is_err(), "cut at {}", end);
        for bytes in [bytes, big_bytes] {
            let mut longer = bytes.clone();
            longer.extend_from_slice(&tail);
            prop_assert!(decode_record(&longer, ColumnBatch::new()).is_err());
            let n = u64::from_le_bytes(bytes[..8].try_into().expect("a count"));
            if count != n {
                let mut lying = bytes.clone();
                lying[..8].copy_from_slice(&count.to_le_bytes());
                prop_assert!(decode_record(&lying, ColumnBatch::new()).is_err(), "count {}", count);
            }
        }
    }
}

#[test]
fn the_empty_record_is_its_count_alone() {
    let bytes = encoded(&ColumnBatch::new());
    assert_eq!(bytes, 0u64.to_le_bytes());
    assert_eq!(record_len(0), Some(8));
    let back = decode_record(&bytes, donation(16, 16)).expect("an empty record");
    assert!(
        back.is_empty() && back.capacity() >= 16,
        "the donation is reused"
    );
    assert_eq!(record_len(u64::MAX / 16), Some(u64::MAX - 7));
    assert_eq!(record_len(u64::MAX / 16 + 1), None);
}
