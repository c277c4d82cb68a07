//! Chained query plans: the pipelined executor (streamed intermediates,
//! every stage planned from propagated censuses, `ewh_exec::run_plan`)
//! against the classic materialize-between-operators execution
//! (`run_plan_materialized`) on the chained hot-key workload — §IV-B's
//! multi-way strategy, compared on peak resident memory and makespan. The `plan` subcommand prints the pair per
//! scheme with its per-stage breakdown; `tests/plan_claims.rs` asserts on
//! the same outcome.

use ewh_core::SchemeKind;
use ewh_exec::{run_plan, run_plan_materialized, OperatorConfig, PlanRun};

use crate::cli::{f, Args, Flag, Kind, Report, Subcommand, Table};
use crate::harness::{check_pipelined_scale, mib, RunConfig};
use crate::workloads::{chain_hotkey_with, ChainWorkload};

/// One chained workload run both ways.
pub struct PlanOutcome {
    pub w: ChainWorkload,
    pub cfg: OperatorConfig,
    /// Whether every stage sits above the bounded-buffer floor where the
    /// peak comparison means anything.
    pub above_floor: bool,
    pub pipe: PlanRun,
    pub mat: PlanRun,
}

/// Runs the CHAIN workload with `kind` on both hops, pipelined and
/// materialized. `queue_tuples` overrides the reducer-queue bound (`None`
/// keeps the engine default). The materialized baseline's joins run on the
/// batch path — the correctness oracle — so the streamed plan must match
/// it exactly and hold strictly less resident; both are asserted here.
pub fn run(kind: SchemeKind, rc: &RunConfig, queue_tuples: Option<usize>) -> PlanOutcome {
    let w = chain_hotkey_with(kind, rc.scale, rc.seed);
    let mut cfg = rc.operator_config(w.cost);
    cfg.queue_tuples = queue_tuples.unwrap_or(cfg.queue_tuples);
    let above_floor = check_pipelined_scale(&w.name, w.n_input(), &cfg);
    let chain = w.chain();
    let pipe = run_plan(&rc.runtime(), &w.a, &w.b, &w.first, &chain, &cfg);
    let mat = run_plan_materialized(&w.a, &w.b, &w.first, &chain, &cfg);
    assert_eq!(
        (pipe.output_total, pipe.checksum),
        (mat.output_total, mat.checksum),
        "{}: the streamed plan disagrees with the materialized oracle",
        w.name
    );
    assert!(
        pipe.peak_resident_bytes < mat.peak_resident_bytes,
        "{}: pipelined plan peak {} not below materialized baseline {}",
        w.name,
        pipe.peak_resident_bytes,
        mat.peak_resident_bytes
    );
    PlanOutcome {
        w,
        cfg,
        above_floor,
        pipe,
        mat,
    }
}

fn modes(out: &PlanOutcome) -> [(&'static str, &PlanRun); 2] {
    [("pipelined", &out.pipe), ("materialized", &out.mat)]
}

/// The balance the chain recipe's final stage must reach under CSIO: its
/// hot cell holds half the output and no key range splits it, so anything
/// near 1 means the block did.
pub const MAX_FINAL_IMBALANCE: f64 = 2.0;

pub const SUBCOMMAND: Subcommand =
    Subcommand::new("plan", &[Flag("--claims", Kind::Switch)], print);

fn print(args: &Args, report: &mut Report) {
    let rc = args.rc;
    // CSIO exercises the propagated statistics and the hot-cell block end
    // to end; hash is the equi-join state of the art and shows the same
    // memory profile.
    let csio = run(SchemeKind::Csio, &rc, None);
    if args.has("--claims") {
        let last = csio.pipe.stages.last().expect("a plan has stages");
        let imbalance = last.join.imbalance(&csio.cfg.cost);
        assert!(
            imbalance <= MAX_FINAL_IMBALANCE,
            "{}: final-stage imbalance {imbalance:.2} above {MAX_FINAL_IMBALANCE}",
            csio.w.name
        );
    }
    let hash = run(SchemeKind::Hash, &rc, None);
    let mut table = Table::new(
        format!(
            "plan (CHAIN, scale {}, j {}, intermediate ≈{:.0}% on the hot key)",
            rc.scale,
            rc.j,
            csio.w.intermediate_hot_fraction * 100.0
        ),
        &[
            "init_scheme",
            "mode",
            "output",
            "intermediate",
            "peak_MiB",
            "makespan_s",
            "network_tuples",
            "migrations",
        ],
    );
    for (kind, out) in [(SchemeKind::Csio, &csio), (SchemeKind::Hash, &hash)] {
        for (mode, run) in modes(out) {
            table.row(vec![
                kind.into(),
                mode.into(),
                run.output_total.into(),
                run.intermediate_tuples().into(),
                f(mib(run.peak_resident_bytes), 2),
                f(run.wall_secs, 4),
                run.total.network_tuples.into(),
                run.total.regions_migrated.into(),
            ]);
        }
    }
    report.push(table);

    // Per-stage breakdown of the CSIO pair: what each stage was planned
    // into, how evenly it ran, and where the time went (`census_keys` is the
    // propagated census a pipelined chain stage was planned from; the
    // materialized side counts its resident intermediate instead).
    let mut stages = Table::new(
        format!("per-stage breakdown (CSIO, {})", csio.w.name),
        &[
            "mode",
            "stage",
            "scheme",
            "regions",
            "blocks",
            "output",
            "imbalance",
            "network_per_intermediate",
            "census_keys",
            "stats_wall_s",
            "join_wall_s",
            "backpressure_s",
            "route_s",
            "merge_s",
            "sweep_s",
        ],
    );
    for (mode, run) in modes(&csio) {
        for (i, s) in run.stages.iter().enumerate() {
            let blocks: Vec<String> = s.blocks.iter().map(|(a, b)| format!("{a}x{b}")).collect();
            // Network tuples per intermediate tuple the stage receives (per
            // probe tuple for the root, which receives a base relation).
            let probe_tuples = match i.checked_sub(1) {
                None => csio.w.b.len() as u64,
                Some(up) => run.stages[up].join.output_total,
            };
            stages.row(vec![
                mode.into(),
                i.into(),
                s.kind.into(),
                s.num_regions.into(),
                if blocks.is_empty() {
                    "-".into()
                } else {
                    blocks.join(",").into()
                },
                s.join.output_total.into(),
                f(s.join.imbalance(&csio.cfg.cost), 3),
                f(s.join.network_tuples as f64 / probe_tuples.max(1) as f64, 3),
                s.sample_tuples.into(),
                f(s.stats_wall_secs, 4),
                f(s.join.wall_join_secs, 4),
                f(s.join.backpressure_secs, 4),
                f(s.join.route_secs, 4),
                f(s.join.merge_secs, 4),
                f(s.join.sweep_secs, 4),
            ]);
        }
    }
    report.push(stages);
}
