//! Batch vs. morsel-driven pipelined execution — identical joins, peak
//! resident memory strictly below the batch path's full-shuffle
//! materialization — and the run-time skew-resilience scenarios: region
//! migration on vs. off, with and without an injected straggler, next to
//! the §V simulation's predicted reassignment counts. The `pipeline`
//! subcommand prints both sections; `tests/pipeline_claims.rs` asserts on
//! the same runs.

use ewh_core::SchemeKind;
use ewh_exec::{
    lpt_schedule, AdaptiveConfig, EngineConfig, EngineRuntime, ExecMode, OperatorConfig,
    OperatorRun, OutputWork, Straggler,
};

use crate::cli::{f, Args, Report, Subcommand, Table};
use crate::harness::{check_pipelined_scale, mib, run_with, RunConfig};
use crate::simulate::{realized_tasks, simulate};
use crate::workloads::{bcb, beocd, beocd_gamma, bicd, retail_hotkey, Workload};

/// The configuration of one batch-vs-pipelined pair. `queue_tuples`
/// overrides the reducer-queue bound (`None` keeps the engine default).
pub fn pair_config(
    w: &Workload,
    rc: &RunConfig,
    work: OutputWork,
    queue_tuples: Option<usize>,
) -> OperatorConfig {
    let mut cfg = rc.operator_config(w.cost);
    cfg.output_work = work;
    cfg.queue_tuples = queue_tuples.unwrap_or(cfg.queue_tuples);
    cfg
}

/// Runs `w` under CSIO on the batch oracle and on the pipelined engine and
/// returns (batch, pipelined). The two must agree on count and checksum;
/// that is asserted here.
pub fn run_both(
    rt: &EngineRuntime,
    w: &Workload,
    base: &OperatorConfig,
) -> (OperatorRun, OperatorRun) {
    let run = |mode| {
        let cfg = OperatorConfig {
            mode,
            ..base.clone()
        };
        run_with(rt, w, SchemeKind::Csio, &cfg)
    };
    let (batch, pipe) = (run(ExecMode::Batch), run(ExecMode::Pipelined));
    assert_eq!(
        (batch.join.output_total, batch.join.checksum),
        (pipe.join.output_total, pipe.join.checksum),
        "{}: modes disagree on the join",
        w.name
    );
    (batch, pipe)
}

/// One pipelined Count-mode run with the migration coordinator on or off
/// (default thresholds) and an optional injected straggler.
pub fn migration_run(
    rt: &EngineRuntime,
    w: &Workload,
    rc: &RunConfig,
    kind: SchemeKind,
    reassign: bool,
    straggler: Option<Straggler>,
) -> OperatorRun {
    let cfg = OperatorConfig {
        mode: ExecMode::Pipelined,
        output_work: OutputWork::Count,
        adaptive: AdaptiveConfig {
            reassign,
            ..Default::default()
        },
        straggler,
        ..rc.operator_config(w.cost)
    };
    run_with(rt, w, kind, &cfg)
}

/// Predicted reassignment count for one scheme: its realized per-region
/// weights fed to the §V simulation under the engine's initial reducer-task
/// placement (LPT by estimated weight over the reducer-task count
/// `EngineConfig::for_tasks` would choose) — the simulation's answer to
/// "how many regions *should* move?".
pub fn predicted_reassignments(w: &Workload, kind: SchemeKind, rc: &RunConfig) -> usize {
    let cfg = rc.operator_config(w.cost);
    let (scheme, tasks) = realized_tasks(w, kind, &cfg);
    let reducers = EngineConfig::for_tasks(rc.threads, cfg.morsel_tuples, rc.seed).reducers;
    let est: Vec<u64> = scheme
        .regions
        .iter()
        .map(|r| r.est_weight(&w.cost))
        .collect();
    let assignment = lpt_schedule(&est, None, reducers);
    let adaptive = AdaptiveConfig::default();
    simulate(&tasks, &assignment, reducers, &adaptive, w.cost.wi_milli).reassignments
}

pub const SUBCOMMAND: Subcommand = Subcommand::new("pipeline", &[], print);

/// Injected cost per absorbed tuple on the slowed reducer of the migration
/// table: enough to dominate the makespan unless its regions migrate.
const STRAGGLER: Straggler = Straggler {
    reducer: 0,
    nanos_per_tuple: 5_000,
};

fn print(args: &Args, report: &mut Report) {
    // This comparison is wall-time sensitive; default to a lighter scale
    // than the paper figures unless the caller chose one.
    let rc = RunConfig {
        scale: args.get("--scale").unwrap_or(0.25),
        ..args.rc
    };
    report.rc = rc;
    // The hot-key join's output is quadratic in the whale SKU; Count mode
    // keeps the comparison about routing and memory, not output touching.
    let retail = retail_hotkey(rc.scale * 4.0, rc.seed);
    let workloads = [
        (bicd(rc.scale, rc.seed), OutputWork::Touch),
        (bcb(4, rc.scale, rc.seed), OutputWork::Touch),
        (
            beocd(rc.scale, beocd_gamma(rc.scale), rc.seed),
            OutputWork::Touch,
        ),
        (retail.clone(), OutputWork::Count),
    ];
    let rt = rc.runtime();
    let mut table = Table::new(
        format!("pipeline (CSIO, scale {}, j {})", rc.scale, rc.j),
        &[
            "workload",
            "mode",
            "output",
            "peak_MiB",
            "shuffle_MiB",
            "join_wall_s",
            "morsels",
            "route_s",
            "merge_s",
            "sweep_s",
            "backpressure_s",
            "migrations",
        ],
    );
    for (w, work) in &workloads {
        let cfg = pair_config(w, &rc, *work, None);
        // Below the floor the bounded buffers hold most of the input and
        // the comparison means nothing: warned about, not asserted.
        let above_floor = check_pipelined_scale(&w.name, w.n_input(), &cfg);
        let (batch, pipe) = run_both(&rt, w, &cfg);
        assert!(
            !above_floor || pipe.join.peak_resident_bytes < batch.join.peak_resident_bytes,
            "{}: pipelined peak {} not below batch {}",
            w.name,
            pipe.join.peak_resident_bytes,
            batch.join.peak_resident_bytes
        );
        for (mode, run) in [("batch", &batch), ("pipelined", &pipe)] {
            let j = &run.join;
            table.row(vec![
                w.name.as_str().into(),
                mode.into(),
                j.output_total.into(),
                f(mib(j.peak_resident_bytes), 1),
                f(mib(j.mem_bytes), 1),
                f(j.wall_join_secs, 4),
                j.morsels_routed.into(),
                f(j.route_secs, 4),
                f(j.merge_secs, 4),
                f(j.sweep_secs, 4),
                f(j.backpressure_secs, 4),
                j.regions_migrated.into(),
            ]);
        }
    }
    report.push(table);

    // Migration needs a second reducer task to exist at all.
    let rc = RunConfig {
        threads: rc.threads.max(2),
        ..rc
    };
    let rt = rc.runtime();
    let mut migration = Table::new(
        format!(
            "runtime region migration ({}, scale {}, straggler = {} ns/tuple on one reducer)",
            retail.name,
            rc.scale * 4.0,
            STRAGGLER.nanos_per_tuple
        ),
        &[
            "init_scheme",
            "fault",
            "migration",
            "join_wall_s",
            "reducer_idle_s",
            "migrations",
            "migr_tuples",
            "migr_handshake_s",
            "sim_predicted",
        ],
    );
    for (kind, straggler, reassign) in [
        (SchemeKind::Csio, None, false),
        (SchemeKind::Csio, None, true),
        (SchemeKind::Hash, None, true),
        (SchemeKind::Csio, Some(STRAGGLER), false),
        (SchemeKind::Csio, Some(STRAGGLER), true),
        (SchemeKind::Hash, Some(STRAGGLER), false),
        (SchemeKind::Hash, Some(STRAGGLER), true),
    ] {
        let run = migration_run(&rt, &retail, &rc, kind, reassign, straggler);
        // The simulation has no straggler model; predictions pair with the
        // fault-free runs only.
        let predicted = if straggler.is_none() && reassign {
            predicted_reassignments(&retail, kind, &rc).into()
        } else {
            "-".into()
        };
        migration.row(vec![
            kind.into(),
            if straggler.is_some() {
                "slow-reducer"
            } else {
                "none"
            }
            .into(),
            if reassign { "on" } else { "off" }.into(),
            f(run.join.wall_join_secs, 4),
            f(run.join.reducer_idle_total(), 4),
            run.join.regions_migrated.into(),
            run.join.migration_tuples.into(),
            f(run.join.migration_secs, 4),
            predicted,
        ]);
    }
    report.push(migration);
}
