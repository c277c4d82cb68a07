//! Acceptance claims of the pipelined engine on the real evaluation
//! workloads: identical joins to the batch oracle, peak resident memory
//! strictly below the batch path's full-shuffle materialization on both the
//! Zipf-skewed paper workloads and the hot-key retail scenario, and the
//! run-time migration claims — a straggling reducer's makespan and idle
//! time recover with migration on, while balanced CSIO runs migrate ≈0
//! regions, matching the adaptive simulation's prediction.

use std::sync::{Mutex, MutexGuard};

use ewh_bench::pipeline::{migration_run, pair_config, run_both};
use ewh_bench::{bcb, check_pipelined_scale, retail_hotkey, run_scheme, RunConfig, SLOW_REDUCER};
use ewh_core::SchemeKind;
use ewh_exec::OutputWork;

/// These tests assert on timing-sensitive properties (peak resident memory,
/// idle time, migration counts) and one of them sleeps hard; running them
/// concurrently on a small host starves each other's reducers and turns
/// genuine claims flaky. Serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Queue bound for the peak-memory claim: halved reducer queues, so the
/// bounded buffers sit well below the inputs. RETAIL's equi self-join has no
/// replication (pipelined routed volume == batch shuffle volume), which
/// makes its margin the thinnest of all workloads — at the default queue
/// bound a momentarily backlogged queue plus the hot region's merge
/// transient could brush the batch footprint.
const QUEUE_TUPLES: usize = 2048;

#[test]
fn pipelined_peak_memory_beats_batch_on_zipf_and_hotkey_workloads() {
    let _serial = serial();
    // The claim needs inputs comfortably larger than the engine's bounded
    // buffers (queues + probe chunks); at toy sizes everything fits in
    // flight and peak legitimately reaches the total. The hot-key join runs
    // in Count mode: its output is quadratic in the hot key and per-output
    // touching would dominate the run without affecting memory.
    let rc = RunConfig {
        scale: 0.3,
        j: 16,
        threads: 2,
        ..Default::default()
    };
    let workloads = [
        (bcb(2, rc.scale, rc.seed), OutputWork::Touch),
        (retail_hotkey(1.0, rc.seed), OutputWork::Count),
    ];
    let rt = rc.runtime();
    for (w, work) in &workloads {
        // The comparison below is only meaningful above the small-scale
        // floor (inputs must dwarf the engine's bounded buffers) — assert
        // it so a future scale tweak cannot silently hollow the claim out.
        let cfg = pair_config(w, &rc, *work, Some(QUEUE_TUPLES));
        assert!(
            check_pipelined_scale(&w.name, w.n_input(), &cfg),
            "{}: workload too small for a meaningful peak-memory claim",
            w.name
        );
        let (batch, pipe) = run_both(&rt, w, &cfg);
        assert_eq!(
            pipe.join.output_total, batch.join.output_total,
            "{}",
            w.name
        );
        assert_eq!(pipe.join.checksum, batch.join.checksum, "{}", w.name);
        // Count mode's checksum is a real one too (partner-count parity).
        assert_ne!(batch.join.checksum, 0, "{}", w.name);
        // Batch holds the full replicated shuffle; the pipeline must stay
        // strictly below it.
        assert!(
            pipe.join.peak_resident_bytes < batch.join.peak_resident_bytes,
            "{}: pipelined peak {} !< batch peak {}",
            w.name,
            pipe.join.peak_resident_bytes,
            batch.join.peak_resident_bytes
        );
        assert!(pipe.join.morsels_routed > 0);
    }
}

#[test]
fn migration_recovers_a_straggling_reducer() {
    let _serial = serial();
    // An injected 20 µs/tuple straggler on one of several reducer tasks
    // dominates the makespan when the placement is frozen; with the
    // migration coordinator on, its regions move to idle reducers and both
    // the wall time and the summed reducer idle time must drop. The margin
    // is wide (the injected sleeps are a hard floor on the frozen run), so
    // this is safe to assert in CI.
    let rc = RunConfig {
        scale: 1.0,
        j: 16,
        threads: 4,
        ..Default::default()
    };
    let w = retail_hotkey(rc.scale, rc.seed);
    let rt = rc.runtime();
    let frozen = migration_run(&rt, &w, &rc, SchemeKind::Csio, false, Some(SLOW_REDUCER));
    let adaptive = migration_run(&rt, &w, &rc, SchemeKind::Csio, true, Some(SLOW_REDUCER));

    assert_eq!(frozen.join.output_total, adaptive.join.output_total);
    assert_eq!(frozen.join.checksum, adaptive.join.checksum);
    assert_eq!(frozen.join.regions_migrated, 0);
    assert!(
        adaptive.join.regions_migrated >= 1,
        "the coordinator must move work off the straggler"
    );
    assert!(adaptive.join.migration_tuples > 0);
    assert!(
        adaptive.join.wall_join_secs < frozen.join.wall_join_secs,
        "migration-on wall {} !< migration-off wall {}",
        adaptive.join.wall_join_secs,
        frozen.join.wall_join_secs
    );
    assert!(
        adaptive.join.reducer_idle_total() < frozen.join.reducer_idle_total(),
        "migration-on idle {} !< migration-off idle {}",
        adaptive.join.reducer_idle_total(),
        frozen.join.reducer_idle_total()
    );
}

#[test]
fn balanced_csio_runs_migrate_almost_nothing() {
    let _serial = serial();
    // The paper's §V argument, realized: CSIO's equi-weight initialization
    // leaves nothing for run-time reassignment to fix, so with default
    // thresholds the coordinator should (almost) never fire — matching the
    // discrete-event simulation's prediction of zero steals for balanced
    // placements.
    let rc = RunConfig {
        scale: 1.0,
        j: 16,
        threads: 4,
        ..Default::default()
    };
    let w = retail_hotkey(rc.scale, rc.seed);
    let run = migration_run(&rc.runtime(), &w, &rc, SchemeKind::Csio, true, None);
    // ≤ 2, not 0: on an oversubscribed host the OS can hold a pool worker
    // (and with it a reducer) off-CPU long enough to look starved for the
    // damping window, and the cheap corrective move it triggers is correct
    // behavior — the claim is that balance leaves ~nothing to migrate, not
    // that the coordinator goes blind.
    assert!(
        run.join.regions_migrated <= 2,
        "balanced CSIO run migrated {} regions",
        run.join.regions_migrated
    );
}

#[test]
fn hotkey_workload_is_output_skewed_for_input_only_schemes() {
    let _serial = serial();
    // The point of the retail scenario: CSI balances input tuples but the
    // hot key's output lands on one worker; CSIO splits by weight and must
    // end up with a strictly lighter max worker.
    let rc = RunConfig {
        scale: 0.15,
        j: 8,
        threads: 4,
        ..Default::default()
    };
    let w = retail_hotkey(rc.scale, rc.seed);
    let rt = rc.runtime();
    let csi = run_scheme(&rt, &w, SchemeKind::Csi, &rc);
    let csio = run_scheme(&rt, &w, SchemeKind::Csio, &rc);
    assert_eq!(csi.join.output_total, csio.join.output_total);
    assert!(
        csio.join.max_weight_milli < csi.join.max_weight_milli,
        "CSIO {} !< CSI {}",
        csio.join.max_weight_milli,
        csi.join.max_weight_milli
    );
}
