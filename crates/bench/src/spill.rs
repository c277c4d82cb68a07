//! Out-of-core execution vs. an unbudgeted in-memory run on the hot-key
//! retail join — the claim of the spill layer, as one scenario.
//!
//! The join runs three times on one pool: the barrier-phased **batch**
//! oracle; **unbudgeted** on the pipelined engine, whose
//! `peak_resident_bytes` is the footprint an operator this size *needs*
//! without out-of-core support (the run that would OOM on a smaller box);
//! and **budgeted**, the same query under a spill budget of `budget_frac`
//! of that observed peak. The inputs then exceed the budget several times
//! over, so reducers must shed sealed build runs and pre-seal probe state
//! to disk and replay them during the sweep. The `spill` subcommand prints
//! the outcome and holds it to the strict under-budget claim;
//! `tests/spill_claims.rs` asserts the counters.

use std::path::PathBuf;

use ewh_core::{SchemeKind, TUPLE_BYTES};
use ewh_exec::{ExecMode, OperatorConfig, OperatorRun, OutputWork, SpillConfig};

use crate::cli::{f, Args, Flag, Kind, Report, Subcommand, Table};
use crate::harness::{check_pipelined_scale, run_with, RunConfig};
use crate::workloads::retail_hotkey;

/// Knobs of one budgeted-vs-unbudgeted comparison.
#[derive(Clone, Debug)]
pub struct SpillScenario {
    pub rc: RunConfig,
    /// Reducer-queue bound. The in-flight queues and morsels are the part
    /// of the footprint a budget cannot shed, so they must sit well inside
    /// the budget itself.
    pub queue_tuples: usize,
    /// Morsel size; `None` keeps the engine default.
    pub morsel_tuples: Option<usize>,
    /// The budget, as a fraction in (0, 1] of the unbudgeted peak.
    pub budget_frac: f64,
    /// Where the spill trigger sits. With headroom, reducers shed state
    /// down to budget − transient, the transient being the bounded
    /// in-flight buffers (queues + routed morsels + probe chunks): peak =
    /// trigger + at most one transient, so the realized footprint lands
    /// strictly under the budget. Without, the trigger is the budget and
    /// the peak may pass it by one transient.
    pub headroom: bool,
    /// Base directory of the per-query spill segment; `None` is the
    /// system default.
    pub temp_dir: Option<PathBuf>,
}

/// The runs of one scenario and the budget they were held to.
#[derive(Clone, Debug)]
pub struct SpillOutcome {
    /// Whether the workload sits above the pipelined-scale floor.
    pub above_floor: bool,
    pub unbudgeted: OperatorRun,
    pub budgeted: OperatorRun,
    pub budget_bytes: u64,
    /// What the spill trigger was set to.
    pub trigger_tuples: u64,
    /// `min_pipelined_input_tuples`, in bytes: the bounded in-flight
    /// buffers no budget can spill.
    pub transient_bytes: u64,
}

/// Runs the scenario. Both pipelined runs must equal the batch oracle —
/// count and checksum; that is asserted here.
pub fn run(sc: &SpillScenario) -> SpillOutcome {
    let w = retail_hotkey(sc.rc.scale, sc.rc.seed);
    let base = sc.rc.operator_config(w.cost);
    let base = OperatorConfig {
        mode: ExecMode::Pipelined,
        // The hot SKU's output is quadratic; Count keeps the comparison
        // about memory, not output touching.
        output_work: OutputWork::Count,
        queue_tuples: sc.queue_tuples,
        morsel_tuples: sc.morsel_tuples.unwrap_or(base.morsel_tuples),
        ..base
    };
    let above_floor = check_pipelined_scale(&w.name, w.n_input(), &base);
    let rt = sc.rc.runtime();
    let with_budget = |budget_tuples| OperatorConfig {
        spill: SpillConfig {
            budget_tuples,
            temp_dir: sc.temp_dir.clone(),
            fail_after_bytes: None,
        },
        ..base.clone()
    };
    let batch_cfg = OperatorConfig {
        mode: ExecMode::Batch,
        ..base.clone()
    };
    let batch = run_with(&rt, &w, SchemeKind::Csio, &batch_cfg);
    let unbudgeted = run_with(&rt, &w, SchemeKind::Csio, &with_budget(None));

    let budget_bytes = (unbudgeted.join.peak_resident_bytes as f64 * sc.budget_frac) as u64;
    let budget_tuples = (budget_bytes / TUPLE_BYTES).max(1);
    let transient_tuples = base.min_pipelined_input_tuples();
    let trigger_tuples = if sc.headroom {
        assert!(
            budget_tuples > 2 * transient_tuples,
            "budget {budget_tuples} tuples is not comfortably above the {transient_tuples}-tuple \
             queue transient — grow --scale or raise --budget-frac"
        );
        budget_tuples - transient_tuples
    } else {
        budget_tuples
    };
    let budgeted = run_with(
        &rt,
        &w,
        SchemeKind::Csio,
        &with_budget(Some(trigger_tuples)),
    );
    for run in [&unbudgeted, &budgeted] {
        assert_eq!(run.join.output_total, batch.join.output_total);
        assert_eq!(run.join.checksum, batch.join.checksum);
    }
    SpillOutcome {
        above_floor,
        unbudgeted,
        budgeted,
        budget_bytes,
        trigger_tuples,
        transient_bytes: transient_tuples * TUPLE_BYTES,
    }
}

pub const SUBCOMMAND: Subcommand =
    Subcommand::new("spill", &[Flag("--budget-frac", Kind::Positive)], print);

/// Holds the run to the strict form of the out-of-core claim (the counters
/// are `spill_claims.rs`'s to assert): the budgeted run really spilled, its
/// peak stayed under the budget the unbudgeted run needed several times
/// over, and it finished within a bounded slowdown — out-of-core completes
/// where OOM would have killed, at disk-I/O cost, not cliff-fall cost.
fn print(args: &Args, report: &mut Report) {
    let budget_frac = args.get("--budget-frac").unwrap_or(0.25);
    assert!(budget_frac <= 1.0, "--budget-frac must be in (0, 1]");
    let out = run(&SpillScenario {
        rc: args.rc,
        queue_tuples: 256,
        morsel_tuples: Some(256),
        budget_frac,
        headroom: true,
        temp_dir: None,
    });
    let (free, held) = (&out.unbudgeted.join, &out.budgeted.join);
    assert!(
        held.spill_bytes > 0,
        "a {budget_frac} budget must force real spill I/O"
    );
    assert!(
        held.peak_resident_bytes <= out.budget_bytes,
        "budgeted peak {} exceeds the {} budget (trigger {} + transient {})",
        held.peak_resident_bytes,
        out.budget_bytes,
        out.trigger_tuples * TUPLE_BYTES,
        out.transient_bytes
    );
    // Bounded, not free: a spilled build comes back once when it fits
    // under the budget, and a hot region's build that never fits is
    // replayed against every probe chunk (`reloads_per_run` shows the mix).
    // The generous cap documents "graceful degradation" as a testable claim
    // while staying safe under timing noise (measured 2.5-3.7x at scale 1
    // on a 2-core host).
    let slowdown = held.wall_join_secs / free.wall_join_secs.max(1e-9);
    assert!(
        slowdown < 40.0,
        "out-of-core slowdown {slowdown:.2}x is no longer 'bounded'"
    );

    let mut table = Table::new(
        format!(
            "spill (retail hot-key, scale {}, budget {:.0}% of unbudgeted peak)",
            args.rc.scale,
            budget_frac * 100.0
        ),
        &[
            "mode",
            "budget_bytes",
            "peak_resident_bytes",
            "spill_bytes",
            "spill_runs",
            "spill_reloads",
            "reloads_per_run",
            "respills",
            "spill_files",
            "wall_s",
            "slowdown",
        ],
    );
    for (mode, budget, join) in [
        ("unbudgeted", "-".into(), free),
        ("budgeted", out.budget_bytes.into(), held),
    ] {
        table.row(vec![
            mode.into(),
            budget,
            join.peak_resident_bytes.into(),
            join.spill_bytes.into(),
            join.spill_runs.into(),
            join.spill_reloads.into(),
            f(join.spill_reloads as f64 / join.spill_runs.max(1) as f64, 2),
            join.spill_respills.into(),
            join.spill_files.into(),
            f(join.wall_join_secs, 4),
            f(join.wall_join_secs / free.wall_join_secs.max(1e-9), 2),
        ]);
    }
    report.push(table);
}
