//! Execution-engine integration tests: shuffle determinism, load accounting,
//! CI's statistical output balance, and failure-ish corners.

mod common;

use common::*;
use ewh_core::{
    build_ci, build_csio, CostModel, HistogramParams, JoinCondition, Key, SchemeKind, TUPLE_BYTES,
};
use ewh_exec::{
    assign_regions, execute_join, run_operator, shuffle, EngineRuntime, OperatorConfig, OutputWork,
};

#[test]
fn grid_shuffle_is_identical_across_thread_counts() {
    let k = random_keys(5000, 2000, 1);
    let (r1, r2) = (tuples(&k), tuples(&k));
    let keys: Vec<Key> = k.clone();
    let cond = JoinCondition::Band { beta: 2 };
    let params = HistogramParams {
        j: 6,
        ..Default::default()
    };
    let scheme = build_csio(&keys, &keys, &cond, &CostModel::band(), &params);

    let base = shuffle(&r1, &r2, &scheme, 1, 42);
    for threads in [2usize, 3, 8] {
        let other = shuffle(&r1, &r2, &scheme, threads, 42);
        assert_eq!(other.network_tuples, base.network_tuples);
        // Same multiset per region (order may differ across threads).
        for (a, b) in base.r1.iter().zip(&other.r1) {
            let mut x: Vec<_> = a.iter().map(|t| (t.key, t.payload)).collect();
            let mut y: Vec<_> = b.iter().map(|t| (t.key, t.payload)).collect();
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y);
        }
    }
}

#[test]
fn ci_output_balance_is_statistical() {
    // 1-Bucket's core property: near-equal output per region regardless of
    // key skew (§II-A: "almost equal-area regions have almost equal output").
    let mut keys = vec![500i64; 4000]; // heavy hitter
    keys.extend(random_keys(4000, 1000, 2));
    let (r1, r2) = (tuples(&keys), tuples(&keys));
    let cond = JoinCondition::Band { beta: 1 };
    let cfg = OperatorConfig {
        j: 8,
        threads: 2,
        ..Default::default()
    };
    let run = run_operator(
        &EngineRuntime::new(4),
        SchemeKind::Ci,
        &r1,
        &r2,
        &cond,
        &cfg,
    );
    let max = run.join.per_worker_output.iter().copied().max().unwrap() as f64;
    let mean = run.join.output_total as f64 / 8.0;
    assert!(max / mean < 1.25, "CI output imbalance {}", max / mean);
}

#[test]
fn mem_accounting_equals_network_volume_times_tuple_bytes() {
    let k = random_keys(2000, 800, 3);
    let (r1, r2) = (tuples(&k), tuples(&k));
    let scheme = build_ci(4, 2000, 2000, None);
    let sh = shuffle(&r1, &r2, &scheme, 2, 4);
    assert_eq!(sh.mem_bytes(), sh.network_tuples * TUPLE_BYTES);
    let per: u64 = sh.per_region_input().iter().sum();
    assert_eq!(per, sh.network_tuples);
}

#[test]
fn execute_join_aggregates_region_loads_per_worker() {
    let k = random_keys(3000, 600, 5);
    let (r1, r2) = (tuples(&k), tuples(&k));
    let keys = k.clone();
    let cond = JoinCondition::Equi;
    let params = HistogramParams {
        j: 8,
        ..Default::default()
    };
    let scheme = build_csio(&keys, &keys, &cond, &CostModel::band(), &params);
    let cfg = OperatorConfig {
        j: 2,
        threads: 2,
        ..Default::default()
    };
    // Fold all regions onto 2 workers.
    let map: Vec<u32> = (0..scheme.num_regions()).map(|r| (r % 2) as u32).collect();
    let sh = shuffle(&r1, &r2, &scheme, 2, 6);
    let total_in = sh.network_tuples;
    let stats = execute_join(sh, &cond, &map, &cfg);
    assert_eq!(stats.per_worker_input.len(), 2);
    assert_eq!(stats.per_worker_input.iter().sum::<u64>(), total_in);
    assert_eq!(
        stats.per_worker_output.iter().sum::<u64>(),
        stats.output_total
    );
}

#[test]
fn lpt_assignment_balances_unequal_regions() {
    let k = random_keys(10_000, 4000, 7);
    let keys = k.clone();
    let cond = JoinCondition::Band { beta: 2 };
    let cost = CostModel::band();
    let params = HistogramParams {
        j: 12,
        ..Default::default()
    };
    let scheme = build_csio(&keys, &keys, &cond, &cost, &params);
    // 12 regions onto 3 equal workers: LPT loads within 2x of each other.
    let map = assign_regions(&scheme, 3, None, &cost);
    assert_eq!(map.len(), scheme.num_regions());
    let mut loads = [0u64; 3];
    for (r, &w) in map.iter().enumerate() {
        loads[w as usize] += scheme.regions[r].est_weight(&cost);
    }
    let max = *loads.iter().max().unwrap() as f64;
    let min = *loads.iter().min().unwrap().max(&1) as f64;
    assert!(max / min < 2.0, "LPT loads {loads:?}");
}

#[test]
fn zero_capacity_worker_is_rejected() {
    let scheme = build_ci(4, 100, 100, None);
    let cost = CostModel::band();
    // Capacities length mismatch must panic (programming error surface).
    let result = std::panic::catch_unwind(|| {
        assign_regions(&scheme, 3, Some(&[1.0, 1.0]), &cost);
    });
    assert!(result.is_err(), "length mismatch should panic");
}

#[test]
fn hash_scheme_runs_end_to_end_on_band_join() {
    let k1 = random_keys(4000, 1500, 9);
    let k2 = random_keys(4000, 1500, 10);
    let cond = JoinCondition::Band { beta: 2 };
    let (r1, r2) = (tuples(&k1), tuples(&k2));
    let cfg = OperatorConfig {
        j: 8,
        threads: 2,
        ..Default::default()
    };
    let rt = EngineRuntime::new(4);
    let expect = run_operator(&rt, SchemeKind::Csio, &r1, &r2, &cond, &cfg)
        .join
        .output_total;
    let run = run_operator(&rt, SchemeKind::Hash, &r1, &r2, &cond, &cfg);
    assert_eq!(run.join.output_total, expect);
    // The 2β+1 fan-out must show in the network volume.
    assert!(
        run.join.network_tuples > 3 * (r1.len() as u64),
        "expected band replication, got {}",
        run.join.network_tuples
    );
}

#[test]
fn count_mode_is_not_slower_than_touch_on_big_outputs() {
    // Smoke check that OutputWork::Count skips the per-output work: equal
    // counts, zero checksum (also covered in unit tests; here end-to-end).
    let k = vec![1i64; 1500];
    let (r1, r2) = (tuples(&k), tuples(&k));
    let cfg = OperatorConfig {
        j: 4,
        output_work: OutputWork::Count,
        ..Default::default()
    };
    let run = run_operator(
        &EngineRuntime::new(4),
        SchemeKind::Ci,
        &r1,
        &r2,
        &JoinCondition::Equi,
        &cfg,
    );
    assert_eq!(run.join.output_total, 1500 * 1500);
    assert_eq!(run.join.checksum, 0);
}
