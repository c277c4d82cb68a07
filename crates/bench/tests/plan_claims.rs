//! Acceptance claims of the composable plan executor on the chained
//! hot-key workload: the pipelined plan (streamed intermediates, planned
//! from propagated censuses) must produce exactly the
//! materialize-between-operators baseline's join — the batch-path oracle —
//! while holding strictly less peak resident memory, at a scale safely above
//! the bounded-buffer floor, and its final stage must come out balanced: the
//! hot cell no key range can split is a block of regions.

use std::sync::{Mutex, MutexGuard};

use ewh_bench::plan::{run, PlanOutcome, MAX_FINAL_IMBALANCE};
use ewh_bench::RunConfig;
use ewh_core::SchemeKind;

/// Timing-sensitive peak-memory assertions; serialized for the same reason
/// as `pipeline_claims.rs` (concurrent tests starve each other's reducers
/// on small hosts).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Keeps the bounded buffers well under the base-relation sizes so the
/// scale guard holds (see `min_pipelined_input_tuples`).
const QUEUE_TUPLES: usize = 1024;

#[test]
fn pipelined_plan_peak_memory_beats_materialized_baseline() {
    let _serial = serial();
    let rc = RunConfig {
        scale: 1.0,
        j: 16,
        threads: 2,
        ..Default::default()
    };
    let PlanOutcome {
        w,
        cfg,
        above_floor,
        pipe,
        mat,
    } = run(SchemeKind::Csio, &rc, Some(QUEUE_TUPLES));
    // The comparison below is only meaningful above the small-input floor
    // (base relations must dwarf the engine's bounded buffers) — assert it
    // so a future scale tweak cannot silently hollow the claim out.
    assert!(
        above_floor,
        "{}: workload too small for a meaningful plan peak-memory claim",
        w.name
    );

    // The materialized baseline's joins run on the batch path — the
    // correctness oracle. The streamed plan must match it exactly.
    assert_eq!(pipe.output_total, mat.output_total, "{}", w.name);
    assert_eq!(pipe.checksum, mat.checksum, "{}", w.name);
    assert_eq!(pipe.intermediate_tuples(), mat.intermediate_tuples());
    assert!(pipe.output_total > 0);

    // The headline: the baseline holds the full intermediate (plus its
    // shuffle) resident; the pipelined plan holds bounded buffers only.
    assert!(
        pipe.peak_resident_bytes < mat.peak_resident_bytes,
        "{}: pipelined plan peak {} !< materialized baseline peak {}",
        w.name,
        pipe.peak_resident_bytes,
        mat.peak_resident_bytes
    );

    // The chain stage was planned from the propagated census of the
    // intermediate — at most one entry per distinct key, never a pass over
    // the stream — and the hot cell it found became a block, which is what
    // balances the stage.
    let chained = &pipe.stages[1];
    assert!(chained.sample_tuples > 0);
    assert!((chained.sample_tuples as u64) < pipe.intermediate_tuples());
    assert!(
        !chained.blocks.is_empty(),
        "{}: no block for the hot cell",
        w.name
    );
    let imbalance = chained.join.imbalance(&cfg.cost);
    assert!(
        imbalance <= MAX_FINAL_IMBALANCE,
        "{}: final-stage imbalance {imbalance:.2}",
        w.name
    );
}

#[test]
fn hash_chain_shows_the_same_memory_profile() {
    let _serial = serial();
    // Same claim under hash partitioning (the equi-join state of the art):
    // the broadcast fan-out of the hot intermediate key makes the
    // materialized baseline's footprint explode, while the streamed plan
    // stays within its bounded buffers.
    let rc = RunConfig {
        scale: 0.6,
        j: 16,
        threads: 2,
        ..Default::default()
    };
    let PlanOutcome {
        w,
        above_floor,
        pipe,
        mat,
        ..
    } = run(SchemeKind::Hash, &rc, Some(QUEUE_TUPLES));
    assert!(above_floor, "{}: below scale floor", w.name);
    assert_eq!(pipe.output_total, mat.output_total);
    assert_eq!(pipe.checksum, mat.checksum);
    assert!(
        pipe.peak_resident_bytes < mat.peak_resident_bytes,
        "pipelined {} !< materialized {}",
        pipe.peak_resident_bytes,
        mat.peak_resident_bytes
    );
}

#[test]
fn the_planned_schemes_do_not_depend_on_the_order_of_the_inputs() {
    let _serial = serial();
    // The chain recipe at 1/20 of the benchmark's scale, its three relations
    // shuffled ten ways under one seed: a scheme planned from censuses is a
    // function of the key multisets, so every stage comes out with the same
    // regions — rectangles, estimates, blocks — and routes the same number
    // of tuples. (Planned from the first tuples to arrive, stage 1 differed
    // from run to run.)
    use ewh_bench::chain_hotkey_with;
    use ewh_exec::run_plan;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let rc = RunConfig {
        scale: 0.2,
        j: 32,
        threads: 2,
        ..Default::default()
    };
    let mut w = chain_hotkey_with(SchemeKind::Csio, rc.scale, rc.seed);
    let cfg = rc.operator_config(w.cost);
    let rt = rc.runtime();
    let mut rng = SmallRng::seed_from_u64(23);
    let mut reference = None;
    for order in 0..10 {
        for rel in [&mut w.a, &mut w.b, &mut w.c] {
            for k in (1..rel.len()).rev() {
                rel.swap(k, rng.gen_range(0..=k));
            }
        }
        let run = run_plan(&rt, &w.a, &w.b, &w.first, &w.chain(), &cfg);
        let planned: Vec<_> = run
            .stages
            .iter()
            .map(|s| (s.regions.clone(), s.blocks.clone(), s.join.network_tuples))
            .collect();
        assert!(!run.stages[1].blocks.is_empty(), "order {order}");
        let reference = reference.get_or_insert_with(|| planned.clone());
        assert_eq!(&planned, reference, "order {order}");
    }
}

#[test]
fn a_wider_stage_adds_its_queues_to_the_peak_and_not_its_sweeps() {
    let _serial = serial();
    // The chain recipe with one mapper and one reducer a stage, then four of
    // each. A hot probe chunk of stage 0 joins to several exchanges' worth
    // of output; swept whole it sat in its reducer's outbox, so four
    // reducers would add four chunks' output to the peak. Swept a slice a
    // turn, a reducer stages one exchange's worth at most, and the wider
    // stage costs what its bounded buffers hold: per stage three more
    // queues with their probe chunks and three more morsels in flight,
    // three more slices in front of the exchange. Placement is frozen — a
    // region that migrates parks fragments outside every bound.
    use ewh_bench::chain_hotkey_with;
    use ewh_core::TUPLE_BYTES;
    use ewh_exec::{run_plan, OperatorConfig};

    let peak_with = |threads: usize| -> (OperatorConfig, u64, u64) {
        let rc = RunConfig {
            scale: 1.0,
            j: 16,
            threads,
            ..Default::default()
        };
        let w = chain_hotkey_with(SchemeKind::Csio, rc.scale, rc.seed);
        let mut cfg = rc.operator_config(w.cost);
        cfg.adaptive.reassign = false;
        cfg.queue_tuples = QUEUE_TUPLES;
        cfg.exchange_tuples = 2 * QUEUE_TUPLES;
        let run = run_plan(&rc.runtime(), &w.a, &w.b, &w.first, &w.chain(), &cfg);
        assert!(run.output_total > 0);
        (cfg, run.peak_resident_bytes, run.intermediate_tuples())
    };
    let (narrow, narrow_peak, intermediate) = peak_with(1);
    let (wide, wide_peak, _) = peak_with(4);
    let stages = 2;
    let added_tuples =
        stages * (wide.min_pipelined_input_tuples() - narrow.min_pipelined_input_tuples()) / 3
            + 3 * (wide.exchange_tuples + wide.morsel_tuples) as u64;
    assert!(
        wide_peak <= narrow_peak + added_tuples * TUPLE_BYTES,
        "threads 4 peaks at {wide_peak} B, threads 1 at {narrow_peak} B: \
         more than the {added_tuples} tuples its buffers add"
    );
    // The claim has content: the stream is many times what was allowed.
    assert!(intermediate > 4 * added_tuples);
}
