//! The eleven paper subcommands: §VI's figures and tables, §VI-E's worst
//! cases, §V.1's hash-vs-range argument and §V's reassignment argument, each
//! a function from the shared flags to the tables the paper prints.

use std::collections::HashMap;
use std::time::Instant;

use ewh_core::histogram::{build_sample_matrix, coarsen_sample_matrix, regionalize};
use ewh_core::{CostModel, HistogramParams, JoinCondition, JoinMatrix, Key, SchemeKind, Tuple};
use ewh_datagen::ZipfCdf;
use ewh_exec::{
    run_operator, run_operator_adaptive, AdaptiveConfig, FallbackPolicy, OperatorConfig,
    OperatorRun,
};
use ewh_tiling::{BspSolver, MonotonicBspSolver};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::cli::{f, Args, Cell, Flag, Kind, Report, Subcommand, Table};
use crate::harness::{mib, run_all_schemes, run_scheme, RunConfig};
use crate::simulate::{realized_tasks, simulate};
use crate::workloads::{bcb, beocd, beocd_gamma, bicd, fig4a_workloads, Workload};

pub const SUBCOMMANDS: [Subcommand; 11] = [
    Subcommand::new("fig4a", &[], fig4a),
    Subcommand::new("fig4c", &[], fig4c),
    Subcommand::new("fig4d", &[], fig4d),
    Subcommand::new("fig4f", &[], fig4f),
    Subcommand::new("fig4h", &[Flag("--per-region", Kind::Switch)], fig4h),
    Subcommand::new("table3", &[], table3),
    Subcommand::new("table4", &[], table4),
    Subcommand::new("table5", &[], table5),
    Subcommand::new("worst-case", &[], worst_case),
    Subcommand::new("hash-vs-range", &[], hash_vs_range),
    Subcommand::new("adaptive", &[], adaptive),
];

const CI_CSI_CSIO: [SchemeKind; 3] = [SchemeKind::Ci, SchemeKind::Csi, SchemeKind::Csio];

fn keys(ts: &[Tuple]) -> Vec<Key> {
    ts.iter().map(|t| t.key).collect()
}

/// The paper's memory-overflow annotation. Overflow is judged on the
/// full-materialization footprint the paper's cluster would hold
/// (`mem_bytes`, the modeled shuffle), not on the pipelined engine's
/// smaller resident peak.
fn overflow_note(mem_bytes: u64, capacity: u64) -> Cell {
    if mem_bytes > capacity {
        "MEM-OVERFLOW"
    } else {
        ""
    }
    .into()
}

/// The three joins the memory and max-weight figures are drawn over.
fn icd_cb_ocd(rc: &RunConfig) -> Vec<Workload> {
    vec![
        bicd(rc.scale, rc.seed),
        bcb(3, rc.scale, rc.seed),
        beocd(rc.scale, beocd_gamma(rc.scale), rc.seed),
    ]
}

/// Two relations of `n` tuples with Zipf(`theta`) keys over `distinct`
/// values, drawn one after the other from one seeded generator.
fn zipf_relations(n: usize, distinct: usize, theta: f64, seed: u64) -> (Vec<Tuple>, Vec<Tuple>) {
    let zipf = ZipfCdf::new(distinct, theta);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut gen = || -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::new(zipf.sample(&mut rng) as i64, i as u64))
            .collect()
    };
    (gen(), gen())
}

fn fig4a(args: &Args, report: &mut Report) {
    let rc = args.rc;
    let rt = rc.runtime();
    let mut total = Table::new(
        "Fig 4a: total execution time (simulated seconds; stats + join)",
        &[
            "join",
            "rho_oi",
            "scheme",
            "stats_s",
            "join_s",
            "total_s",
            "wall_join_s",
            "note",
        ],
    );
    let mut normalized = Table::new(
        "Fig 4b: total time normalized to CSIO, by output/input ratio",
        &["rho_oi", "scheme", "normalized_total"],
    );
    for w in fig4a_workloads(rc.scale, rc.seed) {
        let runs = run_all_schemes(&rt, &w, &rc);
        let rho = runs[0].rho_oi(w.n_input());
        let csio_total = runs[2].total_sim_secs;
        for run in &runs {
            total.row(vec![
                w.name.as_str().into(),
                f(rho, 2),
                run.kind.into(),
                f(run.stats_sim_secs, 3),
                f(run.join.sim_join_secs, 3),
                f(run.total_sim_secs, 3),
                f(run.join.wall_join_secs, 3),
                overflow_note(run.join.mem_bytes, rc.cluster_capacity_bytes()),
            ]);
            normalized.row(vec![
                f(rho, 2),
                run.kind.into(),
                f(run.total_sim_secs / csio_total, 2),
            ]);
        }
    }
    report.push(total);
    report.push(normalized);
}

fn fig4c(args: &Args, report: &mut Report) {
    let rc = args.rc;
    let rt = rc.runtime();
    let capacity = rc.cluster_capacity_bytes();
    let mut table = Table::new(
        "Fig 4c: cluster memory consumption",
        &["join", "scheme", "mem_mib", "network_tuples", "note"],
    );
    for w in icd_cb_ocd(&rc) {
        for run in run_all_schemes(&rt, &w, &rc) {
            table.row(vec![
                w.name.as_str().into(),
                run.kind.into(),
                f(mib(run.join.mem_bytes), 2),
                run.join.network_tuples.into(),
                overflow_note(run.join.mem_bytes, capacity),
            ]);
        }
    }
    report.push(table);
}

/// The weak-scalability sweeps: data size and workers grow together
/// (paper: 16 → 32 → 64 workers at ½×, 1×, 2× the data).
fn scalability_sweep(base: &RunConfig) -> impl Iterator<Item = RunConfig> + '_ {
    [(0.5, 16usize), (1.0, 32), (2.0, 64)]
        .into_iter()
        .map(|(mult, j)| RunConfig {
            scale: base.scale * mult,
            j,
            ..*base
        })
}

fn fig4d(args: &Args, report: &mut Report) {
    let rt = args.rc.runtime();
    // The cluster (and its memory capacity) is fixed across the sweep, as
    // in the paper's 10-blade testbed.
    let capacity = args.rc.cluster_capacity_bytes();
    let mut time = Table::new(
        "Fig 4d: BCB-3 scalability — total execution time",
        &["input/J", "scheme", "stats_s", "join_s", "total_s", "note"],
    );
    let mut mem = Table::new(
        "Fig 4e: BCB-3 scalability — cluster memory",
        &["input/J", "scheme", "mem_mib", "note"],
    );
    for rc in scalability_sweep(&args.rc) {
        let w = bcb(3, rc.scale, rc.seed);
        let setting = format!("{}k/{}", w.n_input() / 1000, rc.j);
        for run in run_all_schemes(&rt, &w, &rc) {
            time.row(vec![
                setting.as_str().into(),
                run.kind.into(),
                f(run.stats_sim_secs, 3),
                f(run.join.sim_join_secs, 3),
                f(run.total_sim_secs, 3),
                overflow_note(run.join.mem_bytes, capacity),
            ]);
            mem.row(vec![
                setting.as_str().into(),
                run.kind.into(),
                f(mib(run.join.mem_bytes), 2),
                overflow_note(run.join.mem_bytes, capacity),
            ]);
        }
    }
    report.push(time);
    report.push(mem);
}

/// The fixed customer population makes the output grow superlinearly with
/// the input — the paper's input ×2.92 → output ×14.46 regime.
fn fig4f(args: &Args, report: &mut Report) {
    let rt = args.rc.runtime();
    let mut time = Table::new(
        "Fig 4f: BEOCD scalability — total execution time",
        &[
            "input/J", "scheme", "rho_oi", "stats_s", "join_s", "total_s",
        ],
    );
    let mut mem = Table::new(
        "Fig 4g: BEOCD scalability — cluster memory",
        &["input/J", "scheme", "mem_mib"],
    );
    for rc in scalability_sweep(&args.rc) {
        let w = beocd(rc.scale, beocd_gamma(rc.scale), rc.seed);
        let setting = format!("{:.1}k/{}", w.n_input() as f64 / 1000.0, rc.j);
        for run in run_all_schemes(&rt, &w, &rc) {
            time.row(vec![
                setting.as_str().into(),
                run.kind.into(),
                f(run.rho_oi(w.n_input()), 2),
                f(run.stats_sim_secs, 3),
                f(run.join.sim_join_secs, 3),
                f(run.total_sim_secs, 3),
            ]);
            mem.row(vec![
                setting.as_str().into(),
                run.kind.into(),
                f(mib(run.join.mem_bytes), 2),
            ]);
        }
    }
    report.push(time);
    report.push(mem);
}

/// Maximum region weight per scheme, computed *after* execution from the
/// realized per-worker loads, plus CSIO's pre-execution estimate
/// (`CSIO-est`) — the accuracy validation of the cost model and of the
/// equi-weight histogram.
fn fig4h(args: &Args, report: &mut Report) {
    let rc = args.rc;
    let rt = rc.runtime();
    let mut weights = Table::new(
        "Fig 4h: maximum region weight (work units) after execution",
        &[
            "join",
            "scheme",
            "max_weight",
            "max_input",
            "max_output",
            "imbalance",
        ],
    );
    let mut per_worker = Table::new(
        "Fig 2a: per-worker weights",
        &["join", "scheme", "worker", "input", "output", "weight"],
    );
    // Per scheme: max-weight ratio vs the per-join best, on the
    // input-dominated and output-dominated extremes.
    let mut icd_ratio = HashMap::new();
    let mut ocd_ratio = HashMap::new();
    for w in icd_cb_ocd(&rc) {
        let runs = run_all_schemes(&rt, &w, &rc);
        for run in &runs {
            weights.row(vec![
                w.name.as_str().into(),
                run.kind.into(),
                (run.join.max_weight_milli / 1000).into(),
                run.join.max_input().into(),
                run.join.max_output().into(),
                f(run.join.imbalance(&w.cost), 2),
            ]);
            if run.kind == SchemeKind::Csio {
                let est = run.build.est_max_weight;
                let real = run.join.max_weight_milli;
                let err = (est as f64 - real as f64) / real.max(1) as f64 * 100.0;
                weights.row(vec![
                    w.name.as_str().into(),
                    "CSIO-est".into(),
                    (est / 1000).into(),
                    "".into(),
                    "".into(),
                    format!("{err:+.1}% vs realized").into(),
                ]);
            }
            let loads = run
                .join
                .per_worker_input
                .iter()
                .zip(&run.join.per_worker_output);
            for (i, (&input, &output)) in loads.enumerate() {
                per_worker.row(vec![
                    w.name.as_str().into(),
                    run.kind.into(),
                    i.into(),
                    input.into(),
                    output.into(),
                    (w.cost.weight(input, output) / 1000).into(),
                ]);
            }
        }
        // Table I inputs: how far is each scheme's max weight from the best
        // scheme's, on the two extremes of the ρoi spectrum? A scheme is
        // input-optimal when it stays competitive on the input-dominated
        // join, output-optimal when it does on the output-dominated join.
        let best = runs.iter().map(|r| r.join.max_weight_milli).min();
        let best = best.expect("three runs").max(1);
        for run in &runs {
            let ratio = run.join.max_weight_milli as f64 / best as f64;
            if w.name == "BICD" {
                icd_ratio.insert(run.kind, ratio);
            } else if w.name == "BEOCD" {
                ocd_ratio.insert(run.kind, ratio);
            }
        }
    }
    if args.has("--per-region") {
        report.push(per_worker);
    }
    report.push(weights);
    let mut verdicts = Table::new(
        "Table I: optimality verdicts (within 1.5x of the best scheme's max weight)",
        &["scheme", "input_optimal", "output_optimal"],
    );
    let verdict = |ratio: f64, join: &str| {
        let yes = if ratio <= 1.5 { "yes" } else { "no" };
        format!("{yes} ({ratio:.2}x best on {join})").into()
    };
    for kind in CI_CSI_CSIO {
        verdicts.row(vec![
            kind.into(),
            verdict(icd_ratio[&kind], "BICD"),
            verdict(ocd_ratio[&kind], "BEOCD"),
        ]);
    }
    report.push(verdicts);
}

/// The paper's table contrasts BSP over M (`O(n⁵ log n)`), over MS
/// (`O((nJ)^2.5 log n)`), over MC (`O(n^{5/3} log n)`) and MONOTONICBSP over
/// MC (`O(n)`). Measured here: (a) per-stage wall time of the pipeline as n
/// grows — near-linear end to end (Theorem 3.1); (b) the DP state counts of
/// baseline BSP vs MONOTONICBSP on the same coarsened matrices — the
/// `O(nc⁴)` vs `O(ncc²)` space gap.
fn table3(args: &Args, report: &mut Report) {
    let rc = args.rc;
    let j = if rc.j == 32 { 16 } else { rc.j }; // keep the dense baseline tractable
    let mut stages = Table::new(
        "Table III (a): histogram stage wall times vs n (expect ~linear total)",
        &[
            "n",
            "ns",
            "nc",
            "sampling_s",
            "coarsening_s",
            "regionalization_s",
            "total_s",
            "regions",
        ],
    );
    let mut states = Table::new(
        "Table III (b): DP states — baseline BSP O(nc^4) vs MONOTONICBSP O(ncc^2)",
        &["n", "nc", "bsp_states", "monotonic_states", "ratio"],
    );
    for scale in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let w = bcb(3, scale, rc.seed);
        let (k1, k2) = (keys(&w.r1), keys(&w.r2));
        let n = k1.len().max(k2.len());
        let params = HistogramParams {
            j,
            threads: rc.threads,
            ..Default::default()
        };

        let t0 = Instant::now();
        let ms = build_sample_matrix(&k1, &k2, &w.cond, &params);
        let t_sample = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let mc = coarsen_sample_matrix(&ms, &w.cond, &w.cost, params.nc(), 4, true);
        let t_coarsen = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let reg = regionalize(&mc, j, false);
        let t_region = t0.elapsed().as_secs_f64();

        let nc = mc.n_rows().max(mc.n_cols());
        stages.row(vec![
            n.into(),
            ms.n_rows().max(ms.n_cols()).into(),
            nc.into(),
            f(t_sample, 4),
            f(t_coarsen, 4),
            f(t_region, 4),
            f(t_sample + t_coarsen + t_region, 4),
            reg.regions.len().into(),
        ]);

        // State counts: the space story of Table III / Lemma 3.4.
        let dense = BspSolver::new(&mc.grid).state_count();
        let mono = MonotonicBspSolver::new(&mc.grid, 1).state_count();
        states.row(vec![
            n.into(),
            nc.into(),
            dense.into(),
            mono.into(),
            format!("{:.1}x", dense as f64 / mono.max(1) as f64).into(),
        ]);
    }
    report.push(stages);
    report.push(states);
}

fn table4(args: &Args, report: &mut Report) {
    let mut table = Table::new(
        "Table IV: join characteristics (measured vs paper)",
        &[
            "join",
            "input",
            "output",
            "rho_oi",
            "paper_input",
            "paper_output",
            "paper_rho",
        ],
    );
    for w in fig4a_workloads(args.rc.scale, args.rc.seed) {
        let m = JoinMatrix::new(keys(&w.r1), keys(&w.r2), w.cond).output_count();
        table.row(vec![
            w.name.as_str().into(),
            w.n_input().into(),
            m.into(),
            f(m as f64 / w.n_input() as f64, 2),
            format!("{:.0}M", w.paper_input_m).into(),
            format!("{:.0}M", w.paper_output_m).into(),
            f(w.paper_rho(), 2),
        ]);
    }
    report.push(table);
}

/// The paper's point: more input statistics cannot cure the missing output
/// statistics — the histogram time grows with p while the join time barely
/// improves, and even the best CSI stays far from CSIO (printed last for
/// reference).
fn table5(args: &Args, report: &mut Report) {
    let rc = args.rc;
    let rt = rc.runtime();
    let mut table = Table::new(
        "Table V: CSI join and histogram-algorithm time vs bucket count p",
        &["join", "scheme", "join_s", "hist_alg_s", "total_s"],
    );
    // The paper sweeps 2000..24000 at n = 240M; the same p/n ratios at our
    // scale (relative to n ≈ 240k after --scale) land at 64..2048.
    for w in [
        beocd(rc.scale, beocd_gamma(rc.scale), rc.seed),
        bcb(3, rc.scale, rc.seed),
    ] {
        let mut row = |scheme: String, run: OperatorRun| {
            table.row(vec![
                w.name.as_str().into(),
                scheme.into(),
                f(run.join.sim_join_secs, 3),
                f(run.build.hist_secs, 4),
                f(run.total_sim_secs, 3),
            ]);
        };
        for p in [64usize, 128, 256, 512, 1024, 2048] {
            let rc_p = RunConfig { csi_p: p, ..rc };
            row(
                format!("CSI p={p}"),
                run_scheme(&rt, &w, SchemeKind::Csi, &rc_p),
            );
        }
        row("CSIO".into(), run_scheme(&rt, &w, SchemeKind::Csio, &rc));
    }
    report.push(table);
}

/// (a) Input-cost-dominated joins with negligible JPS: CSIO's sampling
///     overhead buys nothing — the paper bounds the slowdown at 1.04×.
/// (b) High-selectivity joins (ρoi ≫ 100): the adaptive operator must build
///     CSIO's statistics, notice the exact m, and fall back to CI, wasting
///     only the (cheap) stats phase.
fn worst_case(args: &Args, report: &mut Report) {
    let rc = args.rc;
    let rt = rc.runtime();

    let w = bicd(rc.scale, rc.seed);
    let csi = run_scheme(&rt, &w, SchemeKind::Csi, &rc);
    let csio = run_scheme(&rt, &w, SchemeKind::Csio, &rc);
    let mut overhead = Table::new(
        "Worst case (a): BICD — CSIO overhead vs CSI (paper bound: 1.04x)",
        &["scheme", "stats_s", "join_s", "total_s", "slowdown_vs_csi"],
    );
    for run in [&csi, &csio] {
        overhead.row(vec![
            run.kind.into(),
            f(run.stats_sim_secs, 3),
            f(run.join.sim_join_secs, 3),
            f(run.total_sim_secs, 3),
            f(run.total_sim_secs / csi.total_sim_secs, 2),
        ]);
    }
    report.push(overhead);

    // (b) A heavy-hitter equi-join (8 distinct keys, strong head) whose
    // output is ~3 orders of magnitude above the input.
    let n = (20_000.0 * rc.scale) as usize;
    let (r1, r2) = zipf_relations(n, 8, 1.2, rc.seed);
    let adaptive = run_operator_adaptive(
        &rt,
        &r1,
        &r2,
        &JoinCondition::Equi,
        &rc.operator_config(w.cost), // cluster settings and the band cost model
        &FallbackPolicy::default(),
    );
    let mut fallback = Table::new(
        "Worst case (b): high-selectivity equi-join — adaptive CI fallback",
        &[
            "rho_oi",
            "fell_back",
            "final_scheme",
            "stats_s(incl. wasted)",
            "join_s",
            "total_s",
        ],
    );
    fallback.row(vec![
        f(adaptive.join.output_total as f64 / (2 * n) as f64, 0),
        adaptive.fell_back.to_string().into(),
        adaptive.kind.into(),
        f(adaptive.stats_sim_secs, 3),
        f(adaptive.join.sim_join_secs, 3),
        f(adaptive.total_sim_secs, 3),
    ]);
    report.push(fallback);
}

/// "Hashing scatters neighboring join keys, so the corresponding tuples from
/// the opposite relation need to be replicated: for a band-join with band
/// width β, each tuple goes to 2β+1 machines... the overheads grow
/// proportionally to the width of the band. Range partitioning avoids this
/// problem." The hash scheme (with PRPD-style heavy handling) runs against
/// CSIO over the B_CB band sweep; then, on an equi-join where hashing is
/// the right tool, it matches CSIO (the paper's concession: "for joins with
/// only equality conditions, one should use existing approaches").
fn hash_vs_range(args: &Args, report: &mut Report) {
    let rc = args.rc;
    let rt = rc.runtime();
    let mut band = Table::new(
        "Hash vs range partitioning on band joins (replication grows with beta)",
        &[
            "join",
            "scheme",
            "network_tuples",
            "replication",
            "max_weight",
            "total_s",
        ],
    );
    for beta in [1i64, 2, 4, 8, 16] {
        let w = bcb(beta, rc.scale, rc.seed);
        for kind in [SchemeKind::Hash, SchemeKind::Csio] {
            let run = run_scheme(&rt, &w, kind, &rc);
            band.row(vec![
                w.name.as_str().into(),
                kind.into(),
                run.join.network_tuples.into(),
                f(run.join.network_tuples as f64 / w.n_input() as f64, 2),
                (run.join.max_weight_milli / 1000).into(),
                f(run.total_sim_secs, 3),
            ]);
        }
    }
    report.push(band);

    // Equi-join with a Zipf-heavy key profile: hashing's home turf.
    let n = (100_000.0 * rc.scale) as usize;
    let (r1, r2) = zipf_relations(n, n / 20, 0.9, rc.seed);
    let cfg = rc.operator_config(CostModel::band());
    let mut equi = Table::new(
        "Equi-join with Zipf(0.9) keys: hashing is competitive here (the paper's concession)",
        &[
            "scheme",
            "output",
            "network_tuples",
            "max_weight",
            "total_s",
        ],
    );
    for kind in [SchemeKind::Hash, SchemeKind::Csio, SchemeKind::Csi] {
        let run = run_operator(&rt, kind, &r1, &r2, &JoinCondition::Equi, &cfg);
        equi.row(vec![
            kind.into(),
            run.join.output_total.into(),
            run.join.network_tuples.into(),
            (run.join.max_weight_milli / 1000).into(),
            f(run.total_sim_secs, 3),
        ]);
    }
    report.push(equi);
}

/// The paper: "we can use our technique for initial partitioning... by doing
/// so, we could obtain a scheme that adapts to run-time changes and that
/// drastically reduces the number of task reassignments compared to
/// SkewTune alone." Every scheme builds 4J regions over BE_OCD, the regions
/// are placed on J workers, and the simulation executes them with and
/// without idle-steals-from-busiest reassignment.
fn adaptive(args: &Args, report: &mut Report) {
    let rc = args.rc;
    let w = beocd(rc.scale, beocd_gamma(rc.scale), rc.seed);
    let j = rc.j;
    let mut table = Table::new(
        "Adaptive reassignment on 4J regions (BEOCD): CSIO initialization needs the fewest \
         steals; CI shows work-stealing's granularity/replication penalty (SV work-stealing)",
        &[
            "init_scheme",
            "regions",
            "max_task",
            "frozen_makespan",
            "adaptive_makespan",
            "reassignments",
            "moved_tuples",
        ],
    );
    for kind in CI_CSI_CSIO {
        // 4J regions per scheme so the stealer has units to move. CI's
        // region count is its machine count: build it for 4J "machines".
        let cfg = match kind {
            SchemeKind::Ci => OperatorConfig {
                j: 4 * j,
                ..rc.operator_config(w.cost)
            },
            _ => OperatorConfig {
                j_regions: Some(4 * j),
                ..rc.operator_config(w.cost)
            },
        };
        let (_, tasks) = realized_tasks(&w, kind, &cfg);
        // Round-robin placement of the 4J regions onto J workers (what a
        // scheduler without weight knowledge would do).
        let assignment: Vec<u32> = (0..tasks.len()).map(|i| (i % j) as u32).collect();
        let run = |reassign| {
            let cfg = AdaptiveConfig {
                reassign,
                move_cost_factor: 1.0,
                ..Default::default()
            };
            simulate(&tasks, &assignment, j, &cfg, w.cost.wi_milli)
        };
        let (frozen, stolen) = (run(false), run(true));
        let max_task = tasks.iter().map(|t| t.weight_milli).max().unwrap_or(0);
        table.row(vec![
            kind.into(),
            tasks.len().into(),
            (max_task / 1000).into(),
            (frozen.makespan_milli / 1000).into(),
            (stolen.makespan_milli / 1000).into(),
            stolen.reassignments.into(),
            stolen.moved_tuples.into(),
        ]);
    }
    report.push(table);
}
