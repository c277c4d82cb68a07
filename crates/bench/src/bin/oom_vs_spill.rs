//! Out-of-core execution vs. an unbudgeted in-memory run: the tentpole
//! claim of the spill layer, measured.
//!
//! The hot-key retail join runs twice on the same pipelined engine:
//!
//! * **unbudgeted** — no memory budget; the reducers hold all absorbed
//!   state resident. Its `peak_resident_bytes` is the footprint an
//!   operator this size *needs* without out-of-core support — the run
//!   that would OOM on a box with less memory than that.
//! * **budgeted** — the same query under a spill budget of
//!   `--budget-frac` (default 0.25) of that observed peak. The inputs now
//!   exceed the budget several times over, so reducers must shed sealed
//!   build runs and pre-seal probe state to disk and merge-replay them
//!   during the sweep.
//!
//! The binary asserts the budgeted run (a) produces the identical output
//! and checksum, (b) keeps its peak resident footprint within the budget
//! plus one bounded queue transient (the in-flight buffers a budget
//! cannot shed), (c) actually wrote spill bytes — many runs, all of them
//! into one segment file — and (d) finishes within a bounded slowdown of
//! the in-memory run — out-of-core completes where OOM would have killed,
//! at disk-I/O cost, not cliff-fall cost.
//!
//! Emits TSV plus a JSON document for `BENCH_spill.json`:
//!
//! ```sh
//! cargo run --release -p ewh-bench --bin oom_vs_spill -- \
//!     [--scale 1.0] [--budget-frac 0.25] [--json BENCH_spill.json]
//! ```

use ewh_bench::{
    check_pipelined_scale, commit, json_escape, print_table, retail_hotkey, RunConfig,
};
use ewh_core::{SchemeKind, TUPLE_BYTES};
use ewh_exec::{
    run_operator, EngineRuntime, ExecMode, OperatorConfig, OperatorRun, OutputWork, SpillConfig,
};

fn query_config(rc: &RunConfig, w: &ewh_bench::Workload) -> OperatorConfig {
    OperatorConfig {
        mode: ExecMode::Pipelined,
        // The hot SKU's output is quadratic; Count keeps the comparison
        // about memory, not output touching.
        output_work: OutputWork::Count,
        // Small bounded buffers: the in-flight queues and morsels are the
        // part of the footprint a budget cannot shed, and the strict
        // under-budget claim needs them well inside the budget itself.
        queue_tuples: 256,
        morsel_tuples: 256,
        ..rc.operator_config(w)
    }
}

fn run(
    rt: &EngineRuntime,
    rc: &RunConfig,
    w: &ewh_bench::Workload,
    budget: Option<u64>,
) -> OperatorRun {
    let cfg = OperatorConfig {
        spill: SpillConfig {
            budget_tuples: budget,
            temp_dir: None,
            fail_after_bytes: None,
        },
        ..query_config(rc, w)
    };
    run_operator(rt, SchemeKind::Csio, &w.r1, &w.r2, &w.cond, &cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let rc = RunConfig::from_args();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let budget_frac: f64 =
        flag("--budget-frac").map_or(0.25, |v| v.parse().expect("--budget-frac takes a float"));
    assert!(
        (0.0..=1.0).contains(&budget_frac) && budget_frac > 0.0,
        "--budget-frac must be in (0, 1]"
    );
    let json_path = flag("--json");

    let w = retail_hotkey(rc.scale, rc.seed);
    let cfg = query_config(&rc, &w);
    check_pipelined_scale(&w, &cfg);
    let rt = rc.runtime();

    // Correctness oracle: the barrier-phased batch path.
    let batch = run_operator(
        &rt,
        SchemeKind::Csio,
        &w.r1,
        &w.r2,
        &w.cond,
        &OperatorConfig {
            mode: ExecMode::Batch,
            ..cfg.clone()
        },
    );

    let unbudgeted = run(&rt, &rc, &w, None);
    assert_eq!(unbudgeted.join.output_total, batch.join.output_total);
    assert_eq!(unbudgeted.join.checksum, batch.join.checksum);
    assert_eq!(
        (
            unbudgeted.join.spill_bytes,
            unbudgeted.join.spill_runs,
            unbudgeted.join.spill_reloads,
            unbudgeted.join.spill_files
        ),
        (0, 0, 0, 0),
        "no budget must mean no spill I/O"
    );

    let budget_bytes = (unbudgeted.join.peak_resident_bytes as f64 * budget_frac) as u64;
    let budget_tuples = (budget_bytes / TUPLE_BYTES).max(1);
    // The spill trigger gets headroom: reducers shed state down to
    // budget − transient, where the transient is the bounded in-flight
    // buffers (queues + routed morsels + probe chunks) a budget cannot
    // spill. Peak = trigger + at most one transient, so the realized
    // footprint lands strictly under the budget — the OOM-avoidance
    // claim, not just "near the budget".
    let transient_tuples = cfg.min_pipelined_input_tuples();
    let transient_bytes = transient_tuples * TUPLE_BYTES;
    assert!(
        budget_tuples > 2 * transient_tuples,
        "budget {budget_tuples} tuples is not comfortably above the {transient_tuples}-tuple \
         queue transient — grow --scale or raise --budget-frac"
    );
    let trigger_tuples = budget_tuples - transient_tuples;
    let budgeted = run(&rt, &rc, &w, Some(trigger_tuples));
    assert_eq!(budgeted.join.output_total, batch.join.output_total);
    assert_eq!(budgeted.join.checksum, batch.join.checksum);
    assert!(
        budgeted.join.spill_bytes > 0 && budgeted.join.spill_runs > 1,
        "a {budget_frac} budget must force real spill I/O"
    );
    assert_eq!(
        budgeted.join.spill_files, 1,
        "every run of a query lands in its one segment"
    );

    // Enforcement, strict: the budgeted run's footprint never reached the
    // budget the unbudgeted run needed several times over.
    assert!(
        budgeted.join.peak_resident_bytes <= budget_bytes,
        "budgeted peak {} exceeds the {} budget (trigger {} + transient {})",
        budgeted.join.peak_resident_bytes,
        budget_bytes,
        trigger_tuples * TUPLE_BYTES,
        transient_bytes
    );
    let slowdown = budgeted.join.wall_join_secs / unbudgeted.join.wall_join_secs.max(1e-9);
    // Bounded, not free: replaying every spilled run against every probe
    // chunk is O(chunks x runs) reloads (`spill_reloads` counts them) plus
    // their sweeps. The generous cap documents "graceful degradation" as a
    // testable claim while staying safe under CI timing noise (measured
    // 4-7x at scale 1 on a 2-core host).
    assert!(
        slowdown < 40.0,
        "out-of-core slowdown {slowdown:.2}x is no longer 'bounded'"
    );

    let rows = vec![
        vec![
            "unbudgeted".into(),
            "-".into(),
            format!("{}", unbudgeted.join.peak_resident_bytes),
            "0".into(),
            "0".into(),
            "0".into(),
            "0".into(),
            format!("{:.4}", unbudgeted.join.wall_join_secs),
            "1.00".into(),
        ],
        vec![
            "budgeted".into(),
            format!("{budget_bytes}"),
            format!("{}", budgeted.join.peak_resident_bytes),
            format!("{}", budgeted.join.spill_bytes),
            format!("{}", budgeted.join.spill_runs),
            format!("{}", budgeted.join.spill_reloads),
            format!("{}", budgeted.join.spill_files),
            format!("{:.4}", budgeted.join.wall_join_secs),
            format!("{slowdown:.2}"),
        ],
    ];
    print_table(
        &format!(
            "oom_vs_spill (retail hot-key, scale {}, budget {:.0}% of unbudgeted peak)",
            rc.scale,
            budget_frac * 100.0
        ),
        &[
            "mode",
            "budget_bytes",
            "peak_resident_bytes",
            "spill_bytes",
            "spill_runs",
            "spill_reloads",
            "spill_files",
            "wall_s",
            "slowdown",
        ],
        &rows,
    );

    let json = format!(
        "{{\n  \"bench\": \"oom_vs_spill\",\n  \"commit\": \"{}\",\n  \"host_cores\": {},\n  \"threads\": {},\n  \"workload\": \"{}\",\n  \"scale\": {},\n  \"budget_frac_of_unbudgeted_peak\": {},\n  \"budget_bytes\": {},\n  \"spill_trigger_bytes\": {},\n  \"transient_allowance_bytes\": {},\n  \"unbudgeted_peak_resident_bytes\": {},\n  \"budgeted_peak_resident_bytes\": {},\n  \"budgeted_peak_under_budget\": {},\n  \"spill_bytes\": {},\n  \"spill_runs\": {},\n  \"spill_reloads\": {},\n  \"spill_files\": {},\n  \"spill_secs\": {:.6},\n  \"reload_secs\": {:.6},\n  \"unbudgeted_wall_secs\": {:.6},\n  \"budgeted_wall_secs\": {:.6},\n  \"slowdown\": {:.4},\n  \"output_total\": {},\n  \"checksum\": {}\n}}\n",
        json_escape(&commit()),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        rc.threads,
        json_escape(&w.name),
        rc.scale,
        budget_frac,
        budget_bytes,
        trigger_tuples * TUPLE_BYTES,
        transient_bytes,
        unbudgeted.join.peak_resident_bytes,
        budgeted.join.peak_resident_bytes,
        budgeted.join.peak_resident_bytes <= budget_bytes,
        budgeted.join.spill_bytes,
        budgeted.join.spill_runs,
        budgeted.join.spill_reloads,
        budgeted.join.spill_files,
        budgeted.join.spill_secs,
        budgeted.join.reload_secs,
        unbudgeted.join.wall_join_secs,
        budgeted.join.wall_join_secs,
        slowdown,
        budgeted.join.output_total,
        budgeted.join.checksum,
    );
    match json_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("writing the JSON report failed");
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
}
