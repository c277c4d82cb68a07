//! The traced replay: the same query, run serially on the bench thread
//! through the repository's public kernels, each call inside a span.
//!
//! The engine interleaves these kernels on pool threads, so a span around
//! `run_operator` cannot say where the time went. The replay can: it calls
//! the kernels the engine calls — scheme build, transpose, scatter routing
//! over 1024-tuple morsels, per-fragment sort, frame codec (when the
//! workload ships over a transport), per-region merge and sweep — one at a
//! time, and checks that what it computed is the oracle's join. Its sum is
//! what the query costs with no engine around it; the engine's own
//! `JoinStats` say what the same kernels cost inside it.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ewh_core::histogram::{build_sample_matrix, coarsen_sample_matrix, regionalize};
use ewh_core::{
    encode_frame, BuildInfo, ColumnBatch, FrameDecoder, HistogramParams, JoinCondition, Key,
    PartitionScheme, Rel, RouteBatch, RouteScatter, SchemeKind,
};
use ewh_exec::{
    assign_regions, build_scheme, build_scheme_from_keys, execute_join, merge_sorted_runs, shuffle,
    sweep_columns, sweep_columns_each, KeyFrom, OperatorConfig, OutputWork,
};

use crate::trace::Tracer;
use crate::workloads::{keys_of, Workload};

pub const ROOT: &str = "replay";
pub const HIST_SAMPLE: &str = "histogram.sample";
pub const HIST_COARSEN: &str = "histogram.coarsen";
pub const HIST_REGIONALIZE: &str = "histogram.regionalize";
pub const SCHEME_BUILD: &str = "schemes.build";
pub const TRANSPOSE: &str = "batch.transpose";
pub const ROUTE: &str = "router.route";
pub const SORT: &str = "batch.sort";
pub const ENCODE: &str = "frame.encode";
pub const DECODE: &str = "frame.decode";
pub const MERGE: &str = "local_join.merge";
pub const SWEEP: &str = "local_join.sweep";
pub const BATCH_ROOT: &str = "batch";
pub const BATCH_SCHEME: &str = "batch.scheme";
pub const SHUFFLE: &str = "shuffle.shuffle";
pub const BATCH_JOIN: &str = "local_join.batch_join";

/// The kernels a query is made of, as the engine runs them. The histogram
/// stages are not listed: `schemes.build` already contains them.
pub const QUERY_KERNELS: [&str; 8] = [
    SCHEME_BUILD,
    TRANSPOSE,
    ROUTE,
    SORT,
    ENCODE,
    DECODE,
    MERGE,
    SWEEP,
];

/// Work counted at the same boundaries the spans sit on.
#[derive(Default)]
pub struct Counts {
    pub transpose_tuples: u64,
    pub route_in: u64,
    /// Tuples after replication: what the router handed to regions.
    pub route_out: u64,
    pub sort_tuples: u64,
    pub merge_tuples: u64,
    pub sweep_inputs: u64,
    pub sweep_outputs: u64,
    pub frame_bytes: u64,
}

pub struct Replayed {
    /// `(output_total, checksum)` of the final stage, to compare with the
    /// oracle.
    pub output: (u64, u64),
    pub counts: Counts,
    /// Root-stage scheme diagnostics (deterministic per seed, so equal to
    /// the real query's).
    pub build: BuildInfo,
    pub root_s: f64,
}

/// The three histogram stages behind a CSIO scheme on their own (results
/// dropped), so that `schemes.build` can be broken down.
fn replay_histogram(
    t: &mut Tracer,
    k1: &[Key],
    k2: &[Key],
    cond: &JoinCondition,
    cfg: &OperatorConfig,
) {
    // As `build_scheme_from_keys` derives them.
    let params = HistogramParams {
        j: cfg.j_regions.unwrap_or(cfg.j),
        seed: cfg.seed,
        threads: cfg.threads,
        ..cfg.hist
    };
    let ms = t.leaf(HIST_SAMPLE, || build_sample_matrix(k1, k2, cond, &params));
    let mc = t.leaf(HIST_COARSEN, || {
        coarsen_sample_matrix(
            &ms,
            cond,
            &cfg.cost,
            params.nc(),
            params.coarsen_iters,
            params.monotonic,
        )
    });
    t.leaf(HIST_REGIONALIZE, || {
        regionalize(&mc, params.j, params.baseline_bsp)
    });
}

/// Routes one relation in morsels, appending each touched region's fragment
/// to that region's list.
fn route_side(
    t: &mut Tracer,
    rel: Rel,
    cols: &ColumnBatch,
    scheme: &PartitionScheme,
    cfg: &OperatorConfig,
    frags: &mut [Vec<ColumnBatch>],
    counts: &mut Counts,
) {
    let mut scatter = RouteScatter::new(scheme.num_regions());
    let morsel = cfg.morsel_tuples.max(1);
    for (m, start) in (0..cols.len()).step_by(morsel).enumerate() {
        let end = (start + morsel).min(cols.len());
        let stream = (m as u64) << 1 | matches!(rel, Rel::R2) as u64;
        let mut rng =
            SmallRng::seed_from_u64(cfg.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        t.leaf(ROUTE, || {
            scheme.router.route_scatter(
                rel,
                &cols.keys()[start..end],
                &cols.payloads()[start..end],
                &mut rng,
                &mut scatter,
            )
        });
        counts.route_in += (end - start) as u64;
        for slot in 0..scatter.touched().len() {
            let region = scatter.touched()[slot] as usize;
            let frag = scatter.take_fragment(slot);
            counts.route_out += frag.len() as u64;
            frags[region].push(frag);
        }
    }
}

/// Sorts every fragment, and ships it through the frame codec when the
/// workload runs over a transport.
fn sort_and_frame(
    t: &mut Tracer,
    frags: &mut [Vec<ColumnBatch>],
    framed: bool,
    counts: &mut Counts,
) {
    let mut wire = Vec::new();
    let mut decoder = FrameDecoder::new();
    for (region, list) in frags.iter_mut().enumerate() {
        for frag in list.iter_mut() {
            counts.sort_tuples += frag.len() as u64;
            t.leaf(SORT, || frag.sort_by_key());
            if framed {
                wire.clear();
                t.leaf(ENCODE, || {
                    encode_frame(&mut wire, 1, region as u64, 0, &[], frag)
                });
                counts.frame_bytes += wire.len() as u64;
                let frame = t.leaf(DECODE, || {
                    decoder.feed(&wire);
                    decoder
                        .next_frame()
                        .expect("a frame this program just encoded")
                        .expect("a complete frame")
                });
                assert_eq!(
                    frame.batch.len(),
                    frag.len(),
                    "frame round trip lost tuples"
                );
                *frag = frame.batch;
            }
        }
    }
}

/// One operator stage through the kernels. With `emit`, every output pair
/// is materialized (keyed by that side) as the next stage's probe input.
#[allow(clippy::too_many_arguments)] // one stage's inputs, used once each
fn replay_stage(
    t: &mut Tracer,
    scheme: &PartitionScheme,
    build: &ColumnBatch,
    probe: &ColumnBatch,
    cond: &JoinCondition,
    cfg: &OperatorConfig,
    emit: Option<KeyFrom>,
    counts: &mut Counts,
) -> (u64, u64, ColumnBatch) {
    let n_regions = scheme.num_regions();
    let mut build_frags: Vec<Vec<ColumnBatch>> = vec![Vec::new(); n_regions];
    let mut probe_frags: Vec<Vec<ColumnBatch>> = vec![Vec::new(); n_regions];
    route_side(t, Rel::R1, build, scheme, cfg, &mut build_frags, counts);
    route_side(t, Rel::R2, probe, scheme, cfg, &mut probe_frags, counts);
    let framed = cfg.transport.is_some();
    sort_and_frame(t, &mut build_frags, framed, counts);
    sort_and_frame(t, &mut probe_frags, framed, counts);

    let (mut total, mut checksum) = (0u64, 0u64);
    let mut out = ColumnBatch::new();
    for (b_runs, p_runs) in build_frags.into_iter().zip(probe_frags) {
        counts.merge_tuples += b_runs
            .iter()
            .chain(&p_runs)
            .map(|f| f.len() as u64)
            .sum::<u64>();
        let b = t.leaf(MERGE, || merge_sorted_runs(b_runs));
        let p = t.leaf(MERGE, || merge_sorted_runs(p_runs));
        counts.sweep_inputs += (b.len() + p.len()) as u64;
        // The sides are dropped inside the span: freeing a region's state
        // is part of what a sweep costs the engine too.
        let (count, sum) = t.leaf(SWEEP, || {
            let swept = match emit {
                None => sweep_columns(&b, &p, cond, OutputWork::Touch),
                Some(key_from) => sweep_columns_each(&b, &p, cond, key_from, |key, payload| {
                    out.push(key, payload)
                }),
            };
            drop((b, p));
            swept
        });
        counts.sweep_outputs += count;
        total += count;
        checksum ^= sum;
    }
    (total, checksum, out)
}

/// Replays `w`'s query under a `replay` root span.
pub fn replay(t: &mut Tracer, w: &Workload) -> Replayed {
    let cfg = &w.cfg;
    let mut counts = Counts::default();
    let ((output, build), root_s) = t.span(ROOT, |t| {
        let csio = w.spec.kind == SchemeKind::Csio;
        if csio {
            replay_histogram(t, &keys_of(&w.r1), &keys_of(&w.r2), &w.cond, cfg);
        }
        let (scheme, _) = t.leaf(SCHEME_BUILD, || {
            build_scheme(w.spec.kind, &w.r1, &w.r2, &w.cond, cfg)
        });
        counts.transpose_tuples += (w.r1.len() + w.r2.len()) as u64;
        let r1 = t.leaf(TRANSPOSE, || ColumnBatch::from_tuples(&w.r1));
        let r2 = t.leaf(TRANSPOSE, || ColumnBatch::from_tuples(&w.r2));
        let emit = w.is_chain().then_some(KeyFrom::Probe);
        let (count, checksum, inter) =
            replay_stage(t, &scheme, &r1, &r2, &w.cond, cfg, emit, &mut counts);
        if !w.is_chain() {
            return ((count, checksum), scheme.build);
        }

        // Chain stage: C builds, the intermediate probes; its scheme comes
        // from a sample of intermediate keys the size of the online
        // reservoir (the engine samples the stream, the replay strides).
        let stride = inter
            .len()
            .div_ceil(cfg.stats_reservoir_tuples.max(1))
            .max(1);
        let sample: Vec<Key> = inter.keys().iter().step_by(stride).copied().collect();
        let c_keys = keys_of(&w.c);
        if csio {
            replay_histogram(t, &c_keys, &sample, &w.cond, cfg);
        }
        let (scheme1, _) = t.leaf(SCHEME_BUILD, || {
            build_scheme_from_keys(
                w.spec.kind,
                &c_keys,
                &sample,
                w.c.len() as u64,
                inter.len().max(1) as u64,
                &w.cond,
                cfg,
            )
        });
        counts.transpose_tuples += w.c.len() as u64;
        let c = t.leaf(TRANSPOSE, || ColumnBatch::from_tuples(&w.c));
        let (count, checksum, _) =
            replay_stage(t, &scheme1, &c, &inter, &w.cond, cfg, None, &mut counts);
        ((count, checksum), scheme.build)
    });
    Replayed {
        output,
        counts,
        build,
        root_s,
    }
}

pub struct BatchPath {
    pub output: (u64, u64),
    pub shuffle_s: f64,
    pub join_s: f64,
    pub total_s: f64,
}

/// The barrier-phased batch path, phase by phase: scheme build, `shuffle`,
/// `execute_join` — what `ExecMode::Batch` runs. For the chain this is its
/// root stage only (`run_plan_materialized` does not expose its phases).
pub fn replay_batch(t: &mut Tracer, w: &Workload) -> BatchPath {
    let cfg = &w.cfg;
    let ((output, shuffle_s, join_s), total_s) = t.span(BATCH_ROOT, |t| {
        let (scheme, _) = t.leaf(BATCH_SCHEME, || {
            build_scheme(w.spec.kind, &w.r1, &w.r2, &w.cond, cfg)
        });
        let map = assign_regions(&scheme, cfg.j, cfg.capacities.as_deref(), &cfg.cost);
        let (shuffled, shuffle_s) = t.span(SHUFFLE, |_| {
            shuffle(&w.r1, &w.r2, &scheme, cfg.threads, cfg.seed ^ 0x5F)
        });
        let (stats, join_s) = t.span(BATCH_JOIN, |_| execute_join(shuffled, &w.cond, &map, cfg));
        ((stats.output_total, stats.checksum), shuffle_s, join_s)
    });
    BatchPath {
        output,
        shuffle_s,
        join_s,
        total_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::self_time_by_name;
    use crate::workloads::{spec, SPECS, THREADS};
    use ewh_exec::EngineRuntime;
    use std::path::Path;

    #[test]
    fn replay_computes_the_oracle_join_on_every_workload() {
        let rt = EngineRuntime::new(THREADS);
        for s in &SPECS {
            let w = Workload::build(s, 11, true, Path::new("out/test-spill"));
            let oracle = w.oracle(&rt);
            let mut t = Tracer::new();
            let replayed = replay(&mut t, &w);
            assert_eq!(replayed.output, oracle, "{}", s.name);
            assert!(replayed.counts.sweep_outputs >= oracle.0, "{}", s.name);
            assert!(replayed.counts.route_out >= replayed.counts.route_in);
            assert_eq!(replayed.counts.sort_tuples, replayed.counts.route_out);
            assert_eq!(replayed.counts.merge_tuples, replayed.counts.route_out);
            // Self times partition the root span.
            let by_name = self_time_by_name(t.spans(), 0);
            let total: f64 = by_name.values().sum();
            assert!((total - replayed.root_s).abs() < 1e-6 * replayed.root_s.max(1.0));
            let framed = s.name == "bcb_ci_tcp";
            assert_eq!(by_name.contains_key(ENCODE), framed, "{}", s.name);
            assert_eq!(replayed.counts.frame_bytes > 0, framed, "{}", s.name);
        }
    }

    #[test]
    fn batch_path_agrees_with_the_oracle_on_single_stage_workloads() {
        let rt = EngineRuntime::new(THREADS);
        let w = Workload::build(spec("bcb_ci_tcp").unwrap(), 11, true, Path::new("out/x"));
        let oracle = w.oracle(&rt);
        let mut t = Tracer::new();
        let batch = replay_batch(&mut t, &w);
        assert_eq!(batch.output, oracle);
        assert!(batch.total_s >= batch.shuffle_s + batch.join_s);
    }
}
