//! Integration tests of the morsel-driven pipelined engine: oracle
//! equivalence, peak-memory discipline, stress configurations (tiny queues,
//! single-tuple morsels), the LPT hot-region fix, and the adaptive
//! fallback's plan reuse.

mod common;

use common::*;
use ewh_core::{
    build_csio, CostModel, HistogramParams, JoinCondition, Key, SchemeKind, TUPLE_BYTES,
};
use ewh_exec::{
    execute_join, lpt_schedule, run_operator, run_operator_adaptive, shuffle, EngineRuntime,
    ExecMode, FallbackPolicy, OperatorConfig,
};

fn skewed_keys(n: usize, seed: u64) -> Vec<Key> {
    // Half the tuples on one hot key, the rest uniform.
    let mut keys = random_keys(n / 2, 2000, seed);
    keys.extend(std::iter::repeat_n(777, n - keys.len()));
    keys
}

#[test]
fn pipelined_matches_batch_on_every_scheme() {
    let k1 = skewed_keys(6000, 21);
    let k2 = skewed_keys(6000, 22);
    let cond = JoinCondition::Band { beta: 1 };
    let (r1, r2) = (tuples(&k1), tuples(&k2));
    let rt = test_rt();
    for kind in [
        SchemeKind::Ci,
        SchemeKind::Csi,
        SchemeKind::Csio,
        SchemeKind::Hash,
    ] {
        let base = OperatorConfig {
            j: 8,
            threads: 4,
            ..Default::default()
        };
        let batch = run_operator(
            &rt,
            kind,
            &r1,
            &r2,
            &cond,
            &OperatorConfig {
                mode: ExecMode::Batch,
                ..base.clone()
            },
        );
        let pipe = run_operator(
            &rt,
            kind,
            &r1,
            &r2,
            &cond,
            &OperatorConfig {
                mode: ExecMode::Pipelined,
                ..base
            },
        );
        assert_eq!(pipe.join.output_total, batch.join.output_total, "{kind}");
        assert_eq!(pipe.join.checksum, batch.join.checksum, "{kind}");
    }
}

#[test]
fn pipelined_peak_memory_is_strictly_below_full_materialization() {
    let k1 = skewed_keys(12_000, 31);
    let k2 = skewed_keys(12_000, 32);
    let cond = JoinCondition::Band { beta: 2 };
    let (r1, r2) = (tuples(&k1), tuples(&k2));
    let cfg = OperatorConfig {
        j: 16,
        threads: 4,
        ..Default::default()
    };
    let run = run_operator(&test_rt(), SchemeKind::Csio, &r1, &r2, &cond, &cfg);
    // mem_bytes models the full shuffle; the engine must stay strictly
    // below it (the probe side streams through in chunks).
    assert!(
        run.join.peak_resident_bytes < run.join.mem_bytes,
        "peak {} !< full materialization {}",
        run.join.peak_resident_bytes,
        run.join.mem_bytes
    );
    // Sanity on the pipeline metrics: every morsel routed, reducers
    // reported time, accounting is in tuples × TUPLE_BYTES.
    let expect_morsels =
        r1.len().div_ceil(cfg.morsel_tuples) + r2.len().div_ceil(cfg.morsel_tuples);
    assert_eq!(run.join.morsels_routed as usize, expect_morsels);
    assert!(!run.join.reducer_busy_secs.is_empty());
    assert_eq!(
        run.join.reducer_busy_secs.len(),
        run.join.reducer_idle_secs.len()
    );
    assert!(run.join.backpressure_secs >= 0.0);
    assert_eq!(run.join.peak_resident_bytes % TUPLE_BYTES, 0);
}

#[test]
fn tiny_queues_and_single_tuple_morsels_stay_correct() {
    // Stress the seal protocol: every tuple is its own morsel and queues
    // hold one batch, maximizing backpressure and interleavings.
    let k = random_keys(400, 60, 41);
    let (r1, r2) = (tuples(&k), tuples(&k));
    let cond = JoinCondition::Equi;
    let base = OperatorConfig {
        j: 4,
        threads: 4,
        ..Default::default()
    };
    let rt = test_rt();
    let expect = run_operator(
        &rt,
        SchemeKind::Csio,
        &r1,
        &r2,
        &cond,
        &OperatorConfig {
            mode: ExecMode::Batch,
            ..base.clone()
        },
    );
    let stressed = run_operator(
        &rt,
        SchemeKind::Csio,
        &r1,
        &r2,
        &cond,
        &OperatorConfig {
            mode: ExecMode::Pipelined,
            morsel_tuples: 1,
            queue_tuples: 1,
            ..base
        },
    );
    assert_eq!(stressed.join.output_total, expect.join.output_total);
    assert_eq!(stressed.join.checksum, expect.join.checksum);
    assert_eq!(stressed.join.morsels_routed, 800);
}

/// A mapper transposes every scan morsel it claims into the same scratch
/// columns, so each fill must replace what the last one left. One runtime
/// runs the pipelined join at morsel sizes `n + 5`, `n - 1`, 7 and 1,
/// largest first, over relations of `n` tuples, `n` no multiple of 7: the
/// first three sizes end each relation on a short morsel, and at one
/// thread a single mapper fills its scratch for every morsel of both
/// relations. Every run equals the batch oracle in count and checksum,
/// under CSIO and CI.
#[test]
fn a_mapper_scratch_refilled_at_every_morsel_size_matches_the_batch_oracle() {
    let n = 1000;
    assert_ne!(n % 7, 0);
    let (r1, r2) = (
        tuples(&random_keys(n, 300, 51)),
        tuples(&random_keys(n, 300, 52)),
    );
    let cond = JoinCondition::Band { beta: 1 };
    let rt = EngineRuntime::new(2);
    for kind in [SchemeKind::Csio, SchemeKind::Ci] {
        for threads in [1, 2] {
            let base = OperatorConfig {
                j: 4,
                threads,
                ..Default::default()
            };
            let batch = OperatorConfig {
                mode: ExecMode::Batch,
                ..base.clone()
            };
            let expect = run_operator(&rt, kind, &r1, &r2, &cond, &batch).join;
            assert!(expect.output_total > 0);
            for morsel_tuples in [n + 5, n - 1, 7, 1] {
                let cfg = OperatorConfig {
                    morsel_tuples,
                    ..base.clone()
                };
                let got = run_operator(&rt, kind, &r1, &r2, &cond, &cfg).join;
                assert_eq!(
                    (got.output_total, got.checksum),
                    (expect.output_total, expect.checksum),
                    "{kind}, {threads} threads, morsels of {morsel_tuples}"
                );
                assert_eq!(got.morsels_routed, 2 * n.div_ceil(morsel_tuples) as u64);
            }
        }
    }
}

#[test]
fn lpt_gives_a_dominant_region_a_thread_of_its_own() {
    // Satellite regression: one hot region among many light ones. The old
    // round-robin interleave put regions {0, 4} on the same thread, so the
    // hot thread carried 1000 + 1 units; LPT must leave the hot region
    // alone (makespan == the hot region itself).
    let weights = [1000u64, 1, 1, 1, 1, 1, 1, 1];
    let assignment = lpt_schedule(&weights, None, 4);
    let hot_bin = assignment[0];
    let mut loads = [0u64; 4];
    for (region, &bin) in assignment.iter().enumerate() {
        loads[bin as usize] += weights[region];
    }
    assert_eq!(
        loads[hot_bin as usize], 1000,
        "hot region must not share its bin"
    );
    assert_eq!(*loads.iter().max().unwrap(), 1000);
    // All four bins get work: nothing is stranded.
    assert!(loads.iter().all(|&l| l > 0));
}

#[test]
fn execute_join_handles_a_hot_region_end_to_end() {
    // End-to-end companion of the LPT regression: a CSIO scheme over a
    // hot-key input yields one dominant region; the batch oracle must still
    // produce the exact join with more threads than regions in play.
    let k = skewed_keys(4000, 51);
    let (r1, r2) = (tuples(&k), tuples(&k));
    let cond = JoinCondition::Equi;
    let keys: Vec<Key> = k.clone();
    let params = HistogramParams {
        j: 6,
        ..Default::default()
    };
    let scheme = build_csio(&keys, &keys, &cond, &CostModel::band(), &params);
    let cfg = OperatorConfig {
        j: 6,
        threads: 8,
        mode: ExecMode::Batch,
        ..Default::default()
    };
    let map: Vec<u32> = (0..scheme.num_regions() as u32).collect();
    let sh = shuffle(&r1, &r2, &scheme, 2, 9);
    let input_total = sh.network_tuples;
    let stats = execute_join(sh, &cond, &map, &cfg);
    let expect: u64 = {
        let mut m = 0u64;
        let mut counts = std::collections::HashMap::new();
        for &key in &k {
            *counts.entry(key).or_insert(0u64) += 1;
        }
        for (_, c) in counts {
            m += c * c;
        }
        m
    };
    assert_eq!(stats.output_total, expect);
    assert_eq!(stats.per_worker_input.iter().sum::<u64>(), input_total);
}

#[test]
fn adaptive_fallback_routes_every_morsel_exactly_once_in_pipelined_mode() {
    // Cross-product-like join: every key matches everything → fallback.
    let k = vec![0i64; 1500];
    let (r1, r2) = (tuples(&k), tuples(&k));
    let cond = JoinCondition::Equi;
    let cfg = OperatorConfig {
        j: 4,
        threads: 4,
        mode: ExecMode::Pipelined,
        morsel_tuples: 128,
        ..Default::default()
    };
    let run = run_operator_adaptive(
        &test_rt(),
        &r1,
        &r2,
        &cond,
        &cfg,
        &FallbackPolicy::default(),
    );
    assert!(run.fell_back);
    assert_eq!(run.kind, SchemeKind::Ci);
    assert_eq!(run.join.output_total, 1500 * 1500);
    // CSIO was abandoned before its first morsel was claimed: the CI
    // engine routed every morsel exactly once, no tuple shuffled twice.
    let expect_morsels = 2 * 1500u64.div_ceil(128);
    assert_eq!(run.join.morsels_routed, expect_morsels);
}

#[test]
fn pipelined_imbalance_matches_batch_for_content_sensitive_schemes() {
    // Per-worker load accounting must agree across modes (deterministic
    // routing ⇒ identical per-region inputs, outputs, and thus weights).
    let k1 = random_keys(5000, 1200, 61);
    let k2 = random_keys(5000, 1200, 62);
    let cond = JoinCondition::Band { beta: 1 };
    let (r1, r2) = (tuples(&k1), tuples(&k2));
    let base = OperatorConfig {
        j: 6,
        threads: 3,
        ..Default::default()
    };
    let rt = test_rt();
    let batch = run_operator(
        &rt,
        SchemeKind::Csio,
        &r1,
        &r2,
        &cond,
        &OperatorConfig {
            mode: ExecMode::Batch,
            ..base.clone()
        },
    );
    let pipe = run_operator(
        &rt,
        SchemeKind::Csio,
        &r1,
        &r2,
        &cond,
        &OperatorConfig {
            mode: ExecMode::Pipelined,
            ..base
        },
    );
    assert_eq!(pipe.join.per_worker_input, batch.join.per_worker_input);
    assert_eq!(pipe.join.per_worker_output, batch.join.per_worker_output);
    assert_eq!(pipe.join.max_weight_milli, batch.join.max_weight_milli);
}
