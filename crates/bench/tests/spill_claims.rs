//! Acceptance claims of the out-of-core execution layer on the hot-key
//! retail workload:
//!
//! 1. **Budgets are enforceable.** A run given ~25% of its unbudgeted peak
//!    as a spill budget completes exactly (same output and checksum) with
//!    a peak resident footprint no higher than the budget plus one bounded
//!    queue transient — the in-flight morsels and reducer queues the
//!    budget cannot shed because only absorbed reducer state spills.
//! 2. **Spill really happened, into one file.** The budgeted run reports
//!    `spill_bytes > 0`, so the claim cannot silently pass in-memory, and
//!    its counters say how: `spill_runs > 1` runs appended to
//!    `spill_files == 1` segment, replayed by `spill_reloads ≥ 1` reads —
//!    the file-per-run layout this replaced would report one file per
//!    run. Counters, not timings, so the claim cannot flake.
//! 3. **Zero pressure, zero I/O.** The same workload without a budget
//!    reports `spill_bytes == 0` and all three counters 0 — the spill
//!    path costs nothing, not even an empty directory, until the gauge
//!    actually crosses a budget.
//! 4. **No file outlives its query.** The spill base directory is empty
//!    once the runs complete (`QueryTicket::drop` hygiene).
//!
//! Peak-resident assertions are timing-sensitive (a descheduled reducer
//! lets queues fill deeper), so these tests serialize behind one mutex
//! like `pipeline_claims.rs` / `runtime_claims.rs`.

use std::sync::{Mutex, MutexGuard};

use ewh_bench::spill::{run, SpillScenario};
use ewh_bench::RunConfig;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn a_quarter_budget_completes_exactly_with_peak_held_near_the_budget() {
    let _serial = serial();
    let spill_dir = std::env::temp_dir().join(format!("ewh-spill-claims-{}", std::process::id()));
    // Halved queues keep the bounded buffers (the part of the footprint a
    // budget cannot shed) small relative to the reducer state it can. The
    // trigger is the budget itself, so the peak may pass it by one queue
    // transient — the bound asserted below.
    let out = run(&SpillScenario {
        rc: RunConfig {
            scale: 1.0,
            j: 16,
            threads: 2,
            ..Default::default()
        },
        queue_tuples: 1024,
        morsel_tuples: None,
        budget_frac: 0.25,
        headroom: false,
        temp_dir: Some(spill_dir.clone()),
    });
    assert!(
        out.above_floor,
        "RETAIL: workload below the floor where peak-resident claims mean anything"
    );
    let (unbudgeted, budgeted) = (&out.unbudgeted, &out.budgeted);

    // Zero-pressure baseline: no budget, so the spill path must not run.
    assert!(unbudgeted.join.output_total > 0);
    assert_eq!(
        unbudgeted.join.spill_bytes, 0,
        "an unbudgeted run must not touch disk"
    );
    assert_eq!(unbudgeted.join.spill_secs, 0.0);
    assert_eq!(unbudgeted.join.reload_secs, 0.0);
    assert_eq!(
        (
            unbudgeted.join.spill_runs,
            unbudgeted.join.spill_reloads,
            unbudgeted.join.spill_files
        ),
        (0, 0, 0),
        "an unbudgeted run creates no segment and moves no run"
    );

    // The enforcement claim: a quarter of the observed peak as budget.
    let budget_bytes = unbudgeted.join.peak_resident_bytes / 4;
    assert_eq!(out.budget_bytes, budget_bytes);
    assert_eq!(budgeted.join.output_total, unbudgeted.join.output_total);
    assert_eq!(budgeted.join.checksum, unbudgeted.join.checksum);
    // `spill::run` held both to the batch run; the checksum they share is
    // Count mode's partner-count parity fold, not a constant.
    assert_ne!(budgeted.join.checksum, 0);
    assert!(
        budgeted.join.spill_bytes > 0,
        "a quarter budget must force real spill I/O (budget {} tuples)",
        out.trigger_tuples
    );
    assert!(budgeted.join.spill_secs > 0.0);
    assert!(
        budgeted.join.reload_secs > 0.0 && budgeted.join.spill_reloads > 0,
        "spilled runs must be replayed, not lost"
    );
    assert_eq!(
        budgeted.join.spill_files, 1,
        "one segment per query, however many runs ({})",
        budgeted.join.spill_runs
    );
    assert!(
        budgeted.join.spill_runs > 1,
        "the one-file claim is vacuous with a single run"
    );

    // Peak stays within the budget plus one queue transient: the bounded
    // in-flight buffers (reducer queues + routed morsels + probe chunks,
    // the `min_pipelined_input_tuples` term) are mapper-side state the
    // budget cannot spill, and a merge/reload transiently doubles one
    // region's runs. Anything beyond that bound means enforcement leaked.
    let bound = budget_bytes + out.transient_bytes;
    assert!(
        budgeted.join.peak_resident_bytes <= bound,
        "budgeted peak {} bytes exceeds budget {} + queue transient {}",
        budgeted.join.peak_resident_bytes,
        budget_bytes,
        out.transient_bytes
    );
    // And the budget was a real constraint, not a no-op: it sits well
    // under what the run would otherwise have held resident.
    assert!(
        bound < unbudgeted.join.peak_resident_bytes,
        "claim vacuous: budget+transient {} !< unbudgeted peak {}",
        bound,
        unbudgeted.join.peak_resident_bytes
    );

    // Hygiene: every per-query spill directory died with its ticket.
    if let Ok(entries) = std::fs::read_dir(&spill_dir) {
        let leftover: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        assert!(leftover.is_empty(), "leaked spill files: {leftover:?}");
    }
    let _ = std::fs::remove_dir_all(&spill_dir);
}
