//! Property-based correctness of the framed transport: the wire codec must
//! be bit-exact over adversarial `ColumnBatch`es (empty batches, extreme
//! `i64` keys, slabs past the decoder's 64 KiB compaction threshold) no
//! matter how the byte stream is chopped into reads, and the whole
//! pipelined engine must produce output identical to the `ExecMode::Batch`
//! oracle when every mapper → reducer delivery crosses a framed link — a
//! real localhost TCP connection, with and without
//! migration thresholds forced to fire (`MIGRATE`/`ADOPT` control frames
//! ride the same wire as data), and with a spill budget forcing adopted
//! regions to ship their on-disk run descriptors through the codec.
//!
//! Deterministic companions cover the failure surface: a truncated stream
//! leaves the decoder reporting buffered mid-frame bytes, a corrupted
//! length field surfaces as a `FrameError` (never a panic or a wild
//! allocation), a run descriptor forged in an `ADOPT` sidecar — whatever
//! offset and count it claims — can only be refused or read bytes of the
//! query's own segment, and a corrupt frame injected into a live engine
//! run cancels the query *cooperatively* — an operator's or a plan's,
//! whichever stage the link belongs to — and the pool survives and
//! completes the next transport query.

use std::panic::AssertUnwindSafe;

use ewh_core::{
    encode_frame, ColumnBatch, FrameDecoder, FrameError, JoinCondition, Key, KeyRange, Rel,
    SchemeKind, Tuple, FRAME_HEADER_BYTES, TUPLE_BYTES,
};
use ewh_exec::engine::{Delivery, Framed, RegionBatch};
use ewh_exec::{
    run_operator, run_plan, run_plan_materialized, AdaptiveConfig, ChainStage, EngineRuntime,
    ExecMode, OperatorConfig, SpillConfig, SpillContext, SpillRun, StageSpec, Straggler,
    TransportConfig,
};
use proptest::prelude::*;

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
        let mut b = ColumnBatch::with_capacity(pairs.len());
        for (k, p) in pairs {
            b.push(k, p);
        }
        b
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    // Bit-identity through the codec under adversarial stream splits: the
    // frame must decode to exactly what was encoded regardless of how the
    // transport's reads chop the bytes.
    #[test]
    fn frames_survive_arbitrary_chunked_reads(
        batch in batch_strategy(300),
        kind in 1u8..11,
        a in any::<u64>(),
        b in any::<u64>(),
        extra in prop::collection::vec(any::<u8>(), 0..48),
        chunk in 1usize..97,
    ) {
        let mut wire = Vec::new();
        encode_frame(&mut wire, kind, a, b, &extra, &batch);
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for piece in wire.chunks(chunk) {
            dec.feed(piece);
            while let Some(f) = dec.next_frame().expect("clean wire bytes never error") {
                frames.push(f);
            }
        }
        prop_assert_eq!(frames.len(), 1, "exactly one frame on the wire");
        let f = &frames[0];
        prop_assert_eq!(f.kind, kind);
        prop_assert_eq!(f.a, a);
        prop_assert_eq!(f.b, b);
        prop_assert_eq!(&f.extra, &extra);
        prop_assert_eq!(f.batch.keys(), batch.keys());
        prop_assert_eq!(f.batch.payloads(), batch.payloads());
        prop_assert_eq!(dec.pending_bytes(), 0, "no bytes may linger after a full frame");
    }

    // The delivery codec under the same splits: a batch and the sibling
    // regions riding with it (none to eight, as the frame's sidecar) come
    // back exactly, the tuples on the wire once.
    #[test]
    fn grouped_batches_survive_arbitrary_chunked_reads(
        batch in batch_strategy(300),
        region in any::<u32>(),
        build in any::<bool>(),
        epoch in any::<u64>(),
        siblings in prop::collection::vec(any::<u32>(), 0..9),
        chunk in 1usize..97,
    ) {
        let rel = if build { Rel::R1 } else { Rel::R2 };
        let sent = Delivery::Batch(RegionBatch {
            region,
            rel,
            epoch,
            tuples: batch.clone(),
            siblings: siblings.clone(),
        });
        let mut wire = Vec::new();
        sent.encode(&mut wire);
        prop_assert_eq!(wire.len(), FRAME_HEADER_BYTES + 4 * siblings.len() + 16 * batch.len());
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for piece in wire.chunks(chunk) {
            dec.feed(piece);
            while let Some(f) = dec.next_frame().expect("clean wire bytes never error") {
                got.push(Delivery::decode(f).expect("a batch frame decodes"));
            }
        }
        let [Delivery::Batch(rb)] = &got[..] else {
            panic!("exactly one batch on the wire, got {got:?}");
        };
        prop_assert_eq!((rb.region, rb.rel, rb.epoch), (region, rel, epoch));
        prop_assert_eq!(&rb.siblings, &siblings);
        prop_assert_eq!(&rb.tuples, &batch);
    }

    // An `ADOPT` sidecar is wire input: the run descriptors in it name an
    // offset and a tuple count of the adopter's own choosing. Whatever
    // they claim, rebuilding the descriptor either fails (the extent
    // overflows) or reloading it does (the extent crosses the segment
    // tail, or the length prefix found there disagrees) — and a reload
    // that succeeds returned exactly `tuples` tuples from inside the
    // segment. Never a panic, never an allocation sized by the forged
    // count, never a byte from outside the query's own records.
    #[test]
    fn forged_run_descriptors_cannot_reach_outside_the_segment(
        batches in prop::collection::vec(batch_strategy(40), 1..6),
        offset in prop_oneof![any::<u64>(), 0u64..4096, Just(u64::MAX - 7)],
        tuples in prop_oneof![any::<u64>(), 0u64..64, Just(u64::MAX / TUPLE_BYTES)],
    ) {
        let dir = std::env::temp_dir()
            .join(format!("ewh-prop-transport-{}-forged", std::process::id()));
        let ctx = SpillContext::new(dir.clone(), None);
        for batch in &batches {
            let run = ctx.write_batch(batch).expect("append");
            prop_assert_eq!(&ctx.read_run(&run).expect("honest descriptor"), batch);
        }
        let segment_bytes = ctx.totals().bytes;
        let fence = KeyRange { lo: Key::MIN, hi: Key::MAX };
        if let Ok(forged) = SpillRun::from_parts(offset, tuples, fence) {
            if let Ok(batch) = ctx.read_run(&forged) {
                prop_assert_eq!(batch.len() as u64, tuples);
                prop_assert!(offset + 8 + tuples * TUPLE_BYTES <= segment_bytes);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Slabs far past the decoder's 64 KiB compaction threshold round-trip
/// bit-exactly — whole, in fixed 64 KiB reads (forcing mid-slab
/// compactions), and as a back-to-back pair on one stream.
#[test]
fn oversized_slabs_round_trip_bit_exactly() {
    let mut big = ColumnBatch::with_capacity(20_000);
    for i in 0..20_000i64 {
        let key = match i % 4 {
            0 => Key::MIN + i,
            1 => Key::MAX - i,
            _ => i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64),
        };
        big.push(key, (i as u64).rotate_left(17));
    }
    let mut wire = Vec::new();
    encode_frame(&mut wire, 1, 7, 9, b"meta", &big);
    encode_frame(&mut wire, 3, 0, 0, &[], &ColumnBatch::new());
    assert!(wire.len() > 2 * 64 * 1024, "the frame must dwarf one read");

    for chunk in [wire.len(), 64 * 1024, 4096] {
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for piece in wire.chunks(chunk) {
            dec.feed(piece);
            while let Some(f) = dec.next_frame().expect("clean stream") {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2, "chunk={chunk}");
        assert_eq!(frames[0].batch.keys(), big.keys());
        assert_eq!(frames[0].batch.payloads(), big.payloads());
        assert_eq!(&frames[0].extra, b"meta");
        assert!(frames[1].batch.is_empty());
        assert_eq!(dec.pending_bytes(), 0);
    }
}

/// A stream ending mid-frame is not an error at the codec layer — the
/// decoder just keeps the partial bytes buffered, which is what lets the
/// transport's reader distinguish "truncated mid-frame" from a clean EOF.
#[test]
fn a_truncated_stream_leaves_pending_bytes() {
    let mut batch = ColumnBatch::new();
    batch.push(42, 7);
    let mut wire = Vec::new();
    encode_frame(&mut wire, 1, 0, 0, &[], &batch);
    let mut dec = FrameDecoder::new();
    dec.feed(&wire[..wire.len() - 1]);
    assert!(matches!(dec.next_frame(), Ok(None)));
    assert!(dec.pending_bytes() > 0, "partial frame must stay visible");
    // The final byte completes it.
    dec.feed(&wire[wire.len() - 1..]);
    let f = dec.next_frame().unwrap().expect("now complete");
    assert_eq!(f.batch.keys(), batch.keys());
    assert_eq!(dec.pending_bytes(), 0);
}

/// Corrupted length fields surface as typed errors, never as panics or
/// unbounded allocations: an inner length overrunning the body is
/// `Corrupt`, a body length past the frame cap is `Oversized`.
#[test]
fn corrupt_length_fields_are_typed_errors() {
    let mut batch = ColumnBatch::new();
    batch.push(1, 2);
    let mut wire = Vec::new();
    encode_frame(&mut wire, 1, 3, 4, b"x", &batch);

    // Inflate the extra_len field (body offset 17, wire offset 21) so the
    // sidecar claims to extend past the frame body.
    let mut bad = wire.clone();
    bad[21] ^= 0xFF;
    let mut dec = FrameDecoder::new();
    dec.feed(&bad);
    assert!(
        matches!(dec.next_frame(), Err(FrameError::Corrupt(_))),
        "inflated inner length must decode as Corrupt"
    );

    // A body length past MAX_FRAME_BODY must be rejected before any
    // buffering could try to honor it.
    let mut huge = wire;
    huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut dec = FrameDecoder::new();
    dec.feed(&huge);
    assert!(
        matches!(dec.next_frame(), Err(FrameError::Oversized(_))),
        "a body claiming 4 GiB must decode as Oversized"
    );
}

fn tuples(keys: &[Key]) -> Vec<Tuple> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| Tuple::new(k, i as u64))
        .collect()
}

/// The `prop_migration.rs` forcing thresholds: any observed imbalance
/// migrates, so `MIGRATE`/`ADOPT` control frames actually cross the wire.
fn forced_migration() -> AdaptiveConfig {
    AdaptiveConfig {
        reassign: true,
        move_cost_factor: 0.0,
        migrate_backlog_tuples: 1,
        poll_micros: 20,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    // The whole engine over framed TCP links stays bit-identical to the
    // batch oracle on every scheme, with and without forced migration
    // (sealed regions then travel as ADOPT frames on the same stream as the
    // data they interleave with). Each case runs on two reducers and on
    // four: with up to 16 regions a CI row band or column has several
    // regions on one reducer, so grouped batches cross the wire — they
    // deliver what in-process queues do, and CI puts fewer bytes on the
    // wire than a frame per region would hold — and four reducers add a
    // past owner forwarding to a third.
    #[test]
    fn transport_engine_equals_batch_oracle(
        k1 in prop::collection::vec(0i64..60, 0..200),
        k2 in prop::collection::vec(0i64..60, 0..200),
        beta in 0i64..3,
        j in 1usize..17,
        seed in 0u64..1000,
        migrate in any::<bool>(),
    ) {
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        let cond = JoinCondition::Band { beta };
        let rt = EngineRuntime::new(4);
        let configs = [2, 4].map(|threads| OperatorConfig {
            j,
            threads,
            seed,
            morsel_tuples: 48,
            queue_tuples: 64,
            adaptive: if migrate { forced_migration() } else { AdaptiveConfig::default() },
            ..Default::default()
        });
        let schemes = [SchemeKind::Ci, SchemeKind::Csi, SchemeKind::Csio, SchemeKind::Hash];
        for (base, kind) in configs.iter().flat_map(|c| schemes.map(|k| (c, k))) {
            let threads = base.threads;
            let batch = run_operator(
                &rt, kind, &r1, &r2, &cond,
                &OperatorConfig { mode: ExecMode::Batch, ..base.clone() },
            );
            let pipelined = OperatorConfig { mode: ExecMode::Pipelined, ..base.clone() };
            let in_process = run_operator(&rt, kind, &r1, &r2, &cond, &pipelined);
            let framed = run_operator(
                &rt, kind, &r1, &r2, &cond,
                &OperatorConfig { transport: Some(TransportConfig::tcp()), ..pipelined },
            );
            prop_assert_eq!(
                framed.join.output_total, batch.join.output_total,
                "{} j={} threads={} beta={} migrate={}", kind, j, threads, beta, migrate
            );
            prop_assert_eq!(
                framed.join.checksum, batch.join.checksum,
                "{} j={} threads={} beta={} checksum", kind, j, threads, beta
            );
            prop_assert_eq!(
                framed.join.network_tuples, in_process.join.network_tuples,
                "{} j={} threads={}: a framed run delivers what an in-process one does",
                kind, j, threads
            );
            // Migration ships sealed state as ADOPT frames beside the data,
            // which no delivery count holds; frozen, CI's replication is
            // what the grouping saves on two reducers.
            let ci_grouped = kind == SchemeKind::Ci && threads == 2 && j >= 4;
            if ci_grouped && !migrate && k1.len().min(k2.len()) >= 100 {
                prop_assert!(
                    framed.join.wire_bytes < framed.join.network_tuples * TUPLE_BYTES,
                    "CI j={}: {} wire bytes for {} delivered tuples",
                    j, framed.join.wire_bytes, framed.join.network_tuples
                );
            }
        }
    }
}

/// Out-of-core execution over the wire: with a ~10% budget forcing spills
/// *and* forced migration, adopted regions ship their on-disk run
/// descriptors through `ADOPT` frames (the runs travel by path — both ends
/// share the per-query spill directory) and the join stays exact.
#[test]
fn spilling_transport_run_with_forced_migration_matches_oracle() {
    let keys: Vec<Key> = (0..3000).map(|i| (i % 150) as Key).collect();
    let (r1, r2) = (tuples(&keys), tuples(&keys));
    let cond = JoinCondition::Equi;
    let rt = EngineRuntime::new(4);
    let base = OperatorConfig {
        j: 8,
        threads: 4,
        morsel_tuples: 128,
        queue_tuples: 256,
        ..Default::default()
    };
    let batch = run_operator(
        &rt,
        SchemeKind::Csio,
        &r1,
        &r2,
        &cond,
        &OperatorConfig {
            mode: ExecMode::Batch,
            ..base.clone()
        },
    );
    let framed = run_operator(
        &rt,
        SchemeKind::Csio,
        &r1,
        &r2,
        &cond,
        &OperatorConfig {
            mode: ExecMode::Pipelined,
            transport: Some(TransportConfig::tcp()),
            adaptive: forced_migration(),
            // A straggling reducer keeps one link visibly backlogged while
            // its sibling drains — without it the forced thresholds race
            // the credit round-trip (a remote link's `used_tuples` only
            // reaches zero once credits return) and can miss the window.
            straggler: Some(Straggler {
                reducer: 0,
                nanos_per_tuple: 20_000,
            }),
            spill: SpillConfig {
                budget_tuples: Some((r1.len() + r2.len()) as u64 / 10),
                temp_dir: None,
                fail_after_bytes: None,
            },
            ..base
        },
    );
    assert_eq!(framed.join.output_total, batch.join.output_total);
    assert_eq!(framed.join.checksum, batch.join.checksum);
    assert!(
        framed.join.spill_bytes > 0,
        "the 10% budget must force real spill I/O"
    );
    assert!(
        framed.join.regions_migrated > 0,
        "forced thresholds must fire at least one migration over the wire"
    );
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// A corrupted frame on a live link cancels the query *cooperatively*: the
/// query's token is failed, every parked task is woken and unwinds through
/// the normal abort protocol (no pool worker deadlocks, no process panic
/// from an I/O thread), the driver re-raises the failure at the query join
/// — and the pool then completes a healthy transport query.
#[test]
fn a_corrupt_frame_cancels_the_query_and_the_pool_survives() {
    let keys: Vec<Key> = (0..3000).map(|i| (i % 150) as Key).collect();
    let (r1, r2) = (tuples(&keys), tuples(&keys));
    let cond = JoinCondition::Equi;
    let rt = EngineRuntime::new(4);
    let base = OperatorConfig {
        j: 8,
        threads: 4,
        morsel_tuples: 128,
        queue_tuples: 256,
        ..Default::default()
    };
    let poisoned = OperatorConfig {
        mode: ExecMode::Pipelined,
        transport: Some(TransportConfig {
            corrupt_frame: Some(0),
        }),
        ..base.clone()
    };
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_operator(&rt, SchemeKind::Csio, &r1, &r2, &cond, &poisoned)
    }));
    let err = result.expect_err("a corrupt frame must surface as a panic at the query join");
    let msg = panic_message(err);
    assert!(
        msg.contains("transport failure: "),
        "panic should carry the transport failure, got: {msg}"
    );

    // The pool was not poisoned: the same runtime completes a healthy
    // TCP-transport query afterwards, matching the oracle.
    let batch = run_operator(
        &rt,
        SchemeKind::Csio,
        &r1,
        &r2,
        &cond,
        &OperatorConfig {
            mode: ExecMode::Batch,
            ..base.clone()
        },
    );
    let healthy = run_operator(
        &rt,
        SchemeKind::Csio,
        &r1,
        &r2,
        &cond,
        &OperatorConfig {
            mode: ExecMode::Pipelined,
            transport: Some(TransportConfig::tcp()),
            ..base
        },
    );
    assert_eq!(healthy.join.output_total, batch.join.output_total);
    assert_eq!(healthy.join.checksum, batch.join.checksum);
    assert!(
        healthy.join.wire_bytes > 0,
        "a TCP run must report wire traffic"
    );
}

/// The same fault inside a plan: every stage's links ride the configured
/// transport, so a corrupt first frame kills a stage of a one-stage plan
/// and of a two-stage one alike. The plan must fail at its join with the
/// transport failure in the message — not return an empty join — and the
/// pool must then run a healthy plan over TCP, bit-identical to the
/// materialized oracle.
#[test]
fn a_corrupt_frame_in_a_plan_stage_fails_the_plan_and_the_pool_survives() {
    let keys: Vec<Key> = (0..2000).map(|i| (i % 100) as Key).collect();
    let (a, b, c) = (tuples(&keys), tuples(&keys), tuples(&keys[..400]));
    let first = StageSpec {
        kind: SchemeKind::Csio,
        cond: JoinCondition::Equi,
    };
    let chain = [ChainStage {
        base: &c,
        spec: first,
    }];
    let rt = EngineRuntime::new(4);
    let base = OperatorConfig {
        j: 4,
        threads: 4,
        morsel_tuples: 128,
        queue_tuples: 256,
        exchange_tuples: 1024,
        ..Default::default()
    };
    let over = |transport: TransportConfig| OperatorConfig {
        transport: Some(transport),
        ..base.clone()
    };
    let poisoned = over(TransportConfig {
        corrupt_frame: Some(0),
    });
    for stages in [&chain[..0], &chain[..]] {
        let oracle = run_plan_materialized(&a, &b, &first, stages, &base);
        assert!(oracle.output_total > 0);

        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_plan(&rt, &a, &b, &first, stages, &poisoned)
        }));
        let msg = match result {
            Ok(run) => panic!(
                "a corrupt frame must fail the plan, not return {} of {} rows",
                run.output_total, oracle.output_total
            ),
            Err(payload) => panic_message(payload),
        };
        assert!(
            msg.contains("transport failure: "),
            "{} chain stage(s): panic should carry the transport failure, got: {msg}",
            stages.len()
        );

        let run = run_plan(&rt, &a, &b, &first, stages, &over(TransportConfig::tcp()));
        assert_eq!(run.output_total, oracle.output_total);
        assert_eq!(run.checksum, oracle.checksum);
        assert!(run.total.wire_bytes > 0, "nothing on the wire");
    }
}
