//! The traced run: per-layer metrics, never used for end-to-end numbers.
//!
//! Each traced rep (a) runs the real query twice — once bare, once inside a
//! span — and reads what the layers already publish (`OperatorRun`,
//! `JoinStats`, `PlanStageRun`, the delta of `EngineRuntime::metrics()`);
//! (b) replays the query serially through the public kernels under spans
//! (`replay.rs`); (c) runs the batch path phase by phase; and (d) runs the
//! workload's comparison query (unbudgeted, in-process, or materialized)
//! where it has one. A metric's value is its median over the reps. A layer
//! a workload bypasses reports 0.

use std::collections::BTreeMap;

use ewh_exec::RuntimeMetrics;

use crate::calib::calibrate;
use crate::replay::{self, replay, replay_batch, BatchPath, Replayed};
use crate::stats::{median, quartiles};
use crate::trace::{self_time_by_name, Tracer};
use crate::workloads::{Path, Run};
use crate::{host, timed_rep, Metric, Ready, Rep, NOISY_CAL_RATIO};

pub const TRACED_REPS: usize = 3;

/// The per-layer metrics, `(name, unit)`, grouped by the repository module
/// they describe, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("host.calibration_s", "s"),
    ("host.calibration_iqr_ratio", "ratio"),
    ("host.peak_rss_bytes", "B"),
    ("datagen.generate_s", "s"),
    ("histogram.sample_s", "s"),
    ("histogram.coarsen_s", "s"),
    ("histogram.regionalize_s", "s"),
    ("histogram.ns", "count"),
    ("histogram.est_over_realized_weight", "ratio"),
    ("schemes.build_s", "s"),
    ("schemes.build_share", "ratio"),
    ("schemes.regions", "count"),
    ("batch.transpose_ns_per_tuple", "ns"),
    ("batch.sort_ns_per_tuple", "ns"),
    ("router.route_ns_per_tuple", "ns"),
    ("router.fanout", "ratio"),
    ("frame.encode_bytes_per_s", "B/s"),
    ("frame.decode_bytes_per_s", "B/s"),
    ("shuffle.shuffle_s", "s"),
    ("local_join.merge_ns_per_tuple", "ns"),
    ("local_join.sweep_ns_per_input", "ns"),
    ("local_join.sweep_ns_per_output", "ns"),
    ("local_join.batch_join_s", "s"),
    ("operator.query_wall_s", "s"),
    ("operator.query_wall_min_s", "s"),
    ("operator.stats_wall_s", "s"),
    ("operator.join_wall_s", "s"),
    ("operator.batch_wall_cal", "cal"),
    ("operator.pipelined_over_batch", "ratio"),
    ("operator.cpu_over_serial_kernels", "ratio"),
    ("engine.route_s", "s"),
    ("engine.merge_s", "s"),
    ("engine.sweep_s", "s"),
    ("engine.backpressure_s", "s"),
    ("engine.reducer_busy_s", "s"),
    ("engine.reducer_idle_s", "s"),
    ("engine.morsels_routed", "count"),
    ("engine.kernels_over_wall", "ratio"),
    ("engine.network_tuples_per_input", "ratio"),
    ("runtime.polls", "count"),
    ("runtime.spurious_polls", "count"),
    ("runtime.wakeups", "count"),
    ("runtime.tasks_stolen", "count"),
    ("runtime.parked_s", "s"),
    ("runtime.busy_s", "s"),
    ("runtime.admission_wait_s", "s"),
    ("spill.bytes_written", "B"),
    ("spill.write_s", "s"),
    ("spill.reload_s", "s"),
    ("spill.over_unbudgeted", "ratio"),
    ("transport.wire_bytes", "B"),
    ("transport.wire_bytes_per_tuple", "B"),
    ("transport.tcp_over_inproc", "ratio"),
    ("coordinator.regions_migrated", "count"),
    ("coordinator.migration_tuples", "count"),
    ("plan.stage0_join_wall_s", "s"),
    ("plan.stage1_join_wall_s", "s"),
    ("plan.stage1_route_s", "s"),
    ("plan.intermediate_tuples", "count"),
    ("plan.stats_sample_tuples", "count"),
    ("plan.streamed_over_materialized", "ratio"),
    ("trace.overhead_share", "ratio"),
];

pub struct Traced {
    /// Every [`PER_LAYER`] metric: `(name, unit, median over reps)`.
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
    /// Checked operations: real queries, comparison queries, replays.
    pub attempted: u64,
    pub failed: u64,
    pub noisy: bool,
    /// Per rep: summed self time of the replayed kernels over the replay's
    /// root span (the rest is the replay's own glue).
    pub replay_kernels_over_root: Vec<f64>,
}

/// `num / den`, 0 when the layer did no work.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One rep's metrics, by name. Metrics that need every rep (host, trace
/// overhead) are added by the caller.
struct RepMetrics(BTreeMap<&'static str, f64>);

impl RepMetrics {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|&(n, _)| n == name), "unlisted {name}");
        self.0.insert(name, value);
    }
}

/// What the layers publish about one real query.
fn published(
    m: &mut RepMetrics,
    ready: &Ready,
    rep: &Rep,
    run: &Run,
    rt: (RuntimeMetrics, RuntimeMetrics),
) {
    let js = run.total_stats();
    let (stats_wall_s, join_wall_s, regions) = match run {
        Run::Operator(r) => (r.stats_wall_secs, r.join.wall_join_secs, r.num_regions),
        Run::Plan(p) => {
            let stats: f64 = p.stages.iter().map(|s| s.stats_wall_secs).sum();
            // Stages overlap, so the plan's join wall is its makespan less
            // the root scheme build that precedes every stage.
            let root_stats = p.stages[0].stats_wall_secs;
            let last = p.stages.last().expect("a plan has stages");
            (stats, p.wall_secs - root_stats, last.num_regions)
        }
    };
    m.set("schemes.build_share", per(stats_wall_s, rep.wall_s));
    m.set("schemes.regions", regions as f64);
    m.set("operator.stats_wall_s", stats_wall_s);
    m.set("operator.join_wall_s", join_wall_s);
    m.set("engine.route_s", js.route_secs);
    m.set("engine.merge_s", js.merge_secs);
    m.set("engine.sweep_s", js.sweep_secs);
    m.set("engine.backpressure_s", js.backpressure_secs);
    m.set("engine.reducer_busy_s", js.reducer_busy_total());
    m.set("engine.reducer_idle_s", js.reducer_idle_total());
    m.set("engine.morsels_routed", js.morsels_routed as f64);
    m.set(
        "engine.kernels_over_wall",
        per(js.route_secs + js.merge_secs + js.sweep_secs, join_wall_s),
    );
    m.set(
        "engine.network_tuples_per_input",
        per(js.network_tuples as f64, ready.w.n_input() as f64),
    );
    let (before, after) = rt;
    m.set("runtime.polls", (after.polls - before.polls) as f64);
    m.set(
        "runtime.spurious_polls",
        (after.spurious_polls - before.spurious_polls) as f64,
    );
    m.set("runtime.wakeups", (after.wakeups - before.wakeups) as f64);
    m.set(
        "runtime.tasks_stolen",
        (after.tasks_stolen - before.tasks_stolen) as f64,
    );
    m.set("runtime.parked_s", after.parked_secs - before.parked_secs);
    m.set("runtime.busy_s", after.busy_secs - before.busy_secs);
    m.set(
        "runtime.admission_wait_s",
        after.admission_wait_secs - before.admission_wait_secs,
    );
    m.set("spill.bytes_written", js.spill_bytes as f64);
    m.set("spill.write_s", js.spill_secs);
    m.set("spill.reload_s", js.reload_secs);
    m.set("transport.wire_bytes", js.wire_bytes as f64);
    m.set(
        "transport.wire_bytes_per_tuple",
        per(js.wire_bytes as f64, js.network_tuples as f64),
    );
    m.set("coordinator.regions_migrated", js.regions_migrated as f64);
    m.set("coordinator.migration_tuples", js.migration_tuples as f64);
    let (mut s0, mut s1, mut s1_route, mut inter, mut sample) = (0.0, 0.0, 0.0, 0.0, 0.0);
    if let Run::Plan(p) = run {
        s0 = p.stages[0].join.wall_join_secs;
        let last = p.stages.last().expect("a plan has stages");
        s1 = last.join.wall_join_secs;
        s1_route = last.join.route_secs;
        inter = p.intermediate_tuples() as f64;
        sample = last.sample_tuples as f64;
    }
    m.set("plan.stage0_join_wall_s", s0);
    m.set("plan.stage1_join_wall_s", s1);
    m.set("plan.stage1_route_s", s1_route);
    m.set("plan.intermediate_tuples", inter);
    m.set("plan.stats_sample_tuples", sample);
}

/// What the replay's spans and counts say about the kernels. Returns the
/// summed self time of the query's kernels.
fn replayed_kernels(
    m: &mut RepMetrics,
    own: &BTreeMap<&'static str, f64>,
    replayed: &Replayed,
    batch: &BatchPath,
    realized_max_weight: u64,
) -> f64 {
    let t = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let c = &replayed.counts;
    m.set("histogram.sample_s", t(replay::HIST_SAMPLE));
    m.set("histogram.coarsen_s", t(replay::HIST_COARSEN));
    m.set("histogram.regionalize_s", t(replay::HIST_REGIONALIZE));
    m.set("histogram.ns", replayed.build.ns as f64);
    m.set(
        "histogram.est_over_realized_weight",
        per(
            replayed.build.est_max_weight as f64,
            realized_max_weight as f64,
        ),
    );
    m.set("schemes.build_s", t(replay::SCHEME_BUILD));
    m.set(
        "batch.transpose_ns_per_tuple",
        per(1e9 * t(replay::TRANSPOSE), c.transpose_tuples as f64),
    );
    m.set(
        "batch.sort_ns_per_tuple",
        per(1e9 * t(replay::SORT), c.sort_tuples as f64),
    );
    m.set(
        "router.route_ns_per_tuple",
        per(1e9 * t(replay::ROUTE), c.route_in as f64),
    );
    m.set("router.fanout", per(c.route_out as f64, c.route_in as f64));
    m.set(
        "frame.encode_bytes_per_s",
        per(c.frame_bytes as f64, t(replay::ENCODE)),
    );
    m.set(
        "frame.decode_bytes_per_s",
        per(c.frame_bytes as f64, t(replay::DECODE)),
    );
    m.set(
        "local_join.merge_ns_per_tuple",
        per(1e9 * t(replay::MERGE), c.merge_tuples as f64),
    );
    m.set(
        "local_join.sweep_ns_per_input",
        per(1e9 * t(replay::SWEEP), c.sweep_inputs as f64),
    );
    m.set(
        "local_join.sweep_ns_per_output",
        per(1e9 * t(replay::SWEEP), c.sweep_outputs as f64),
    );
    m.set("shuffle.shuffle_s", batch.shuffle_s);
    m.set("local_join.batch_join_s", batch.join_s);
    replay::QUERY_KERNELS.iter().map(|k| t(k)).sum()
}

/// Runs `reps` traced reps of `ready`'s workload.
pub fn traced_run(ready: &mut Ready, reps: usize) -> Result<Traced, String> {
    let mut tracer = Tracer::new();
    let mut cal = Vec::new();
    let mut per_rep: Vec<RepMetrics> = Vec::new();
    let (mut bare_cal, mut bare_s, mut spanned_cal) = (Vec::new(), Vec::new(), Vec::new());
    let mut replay_kernels_over_root = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |ok: bool| {
        attempted += 1;
        failed += !ok as u64;
    };

    for i in 0..reps {
        tracer.set_rep(i as u32);
        ready.w.draw_ticket(i as u64 + 1);
        let ready = &*ready;
        let w = &ready.w;
        let mut m = RepMetrics(BTreeMap::new());

        // (a) The real query, bare and inside a span, in alternating order
        // so that neither always runs on the warmer host.
        let spanned_first = i % 2 == 1;
        let mut rt_delta = None;
        let mut query = |tracer: &mut Tracer, spanned: bool| {
            if !spanned {
                return timed_rep(ready, &w.cfg);
            }
            let before = ready.rt.metrics();
            let (rep, _) = tracer.span("query", |_| timed_rep(ready, &w.cfg));
            rt_delta = Some((before, ready.rt.metrics()));
            rep
        };
        let c0 = calibrate();
        let first = query(&mut tracer, spanned_first);
        let c1 = calibrate();
        let second = query(&mut tracer, !spanned_first);
        let c2 = calibrate();
        let mut pair = [
            (first.wall_s / ((c0 + c1) / 2.0), first),
            (second.wall_s / ((c1 + c2) / 2.0), second),
        ];
        if spanned_first {
            pair.swap(0, 1);
        }
        let [(bare_wall_cal, bare), (spanned_wall_cal, spanned)] = pair;
        bare_cal.push(bare_wall_cal);
        spanned_cal.push(spanned_wall_cal);
        let (before, after) = rt_delta.expect("the spanned query ran");
        check(bare.ok);
        check(spanned.ok);
        let Some(run) = &spanned.run else {
            return Err(format!(
                "workload `{}`: the traced query panicked",
                w.spec.name
            ));
        };
        published(&mut m, ready, &spanned, run, (before, after));
        bare_s.push(bare.wall_s);

        // (b) The serial replay and (c) the batch path, under spans.
        let replayed = replay(&mut tracer, w);
        check(replayed.output == ready.oracle);
        let batch = replay_batch(&mut tracer, w);
        // The chain's batch phases cover its root stage only, whose output
        // is the intermediate, not the oracle's final join.
        check(w.is_chain() || batch.output == ready.oracle);
        let c3 = calibrate();
        let own = self_time_by_name(tracer.spans(), i as u32);
        let realized = match run {
            Run::Operator(r) => r.join.max_weight_milli,
            Run::Plan(p) => p.stages[0].join.max_weight_milli,
        };
        let kernels_s = replayed_kernels(&mut m, &own, &replayed, &batch, realized);
        m.set(
            "operator.cpu_over_serial_kernels",
            per(spanned.cpu_s, kernels_s),
        );
        let replay_all: f64 = own
            .iter()
            .filter(|(name, _)| {
                replay::QUERY_KERNELS.contains(name) || name.starts_with("histogram.")
            })
            .map(|(_, secs)| secs)
            .sum();
        replay_kernels_over_root.push(per(replay_all, replayed.root_s));

        // (d) The comparison query, where the workload has one. Its ratio
        // is taken against this rep's bare query, a few seconds away.
        let mut batch_wall_s = batch.total_s;
        let mut batch_unit = (c2 + c3) / 2.0;
        let (mut over_unbudgeted, mut tcp_over_inproc, mut over_materialized) = (0.0, 0.0, 0.0);
        if let Some(cfg) = w.comparison_config() {
            let (other, _) = tracer.span("comparison.query", |_| timed_rep(ready, &cfg));
            check(other.ok);
            let ratio = per(bare.wall_s, other.wall_s);
            match w.spec.path {
                Path::Spill => over_unbudgeted = ratio,
                _ => tcp_over_inproc = ratio,
            }
        }
        if w.is_chain() {
            let (materialized, secs) = tracer.span("plan.materialized", |_| w.batch(&ready.rt));
            let c4 = calibrate();
            check(materialized.output() == ready.oracle);
            over_materialized = per(bare.wall_s, secs);
            batch_wall_s = secs;
            batch_unit = (c3 + c4) / 2.0;
            cal.push(c4);
        }
        m.set("spill.over_unbudgeted", over_unbudgeted);
        m.set("transport.tcp_over_inproc", tcp_over_inproc);
        m.set("plan.streamed_over_materialized", over_materialized);
        m.set("operator.batch_wall_cal", batch_wall_s / batch_unit);
        m.set(
            "operator.pipelined_over_batch",
            per(bare.wall_s, batch_wall_s),
        );

        cal.extend([c0, c1, c2, c3]);
        per_rep.push(m);
    }

    let (q1, q3) = quartiles(&cal);
    let noisy = q3 / q1 > NOISY_CAL_RATIO;
    let whole_run: [(&str, f64); 7] = [
        ("host.calibration_s", median(&cal)),
        ("host.calibration_iqr_ratio", q3 / q1),
        ("host.peak_rss_bytes", host::peak_rss_bytes() as f64),
        ("datagen.generate_s", ready.generate_s),
        ("operator.query_wall_s", median(&bare_s)),
        (
            "operator.query_wall_min_s",
            bare_s.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        (
            "trace.overhead_share",
            median(&spanned_cal) / median(&bare_cal) - 1.0,
        ),
    ];
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match whole_run.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) => v,
                None => {
                    let series: Vec<f64> = per_rep
                        .iter()
                        .map(|m| {
                            *m.0.get(name)
                                .unwrap_or_else(|| panic!("{name} was never set"))
                        })
                        .collect();
                    median(&series)
                }
            };
            (name, unit, value)
        })
        .collect();
    Ok(Traced {
        metrics,
        tracer,
        attempted,
        failed,
        noisy,
        replay_kernels_over_root,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
            assert!(
                PER_LAYER[..i].iter().all(|(n, _)| n != name),
                "{name} listed twice"
            );
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn per_guards_idle_layers() {
        assert_eq!(per(5.0, 0.0), 0.0);
        assert_eq!(per(6.0, 3.0), 2.0);
    }
}
