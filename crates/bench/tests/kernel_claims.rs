//! Acceptance claims of the columnar kernels: the AoS and columnar
//! implementations of routing, sorting, and the staircase sweep fold
//! bit-identical output checksums, and the columnar sweep's throughput is
//! at least in the AoS sweep's ballpark (a generous margin — CI hosts are
//! noisy; the real speedup claim lives in `BENCH_kernels.json`, measured
//! on a quiet machine at full scale).

use ewh_bench::kernels::{run_kernels, sweep_aos, sweep_cols, throughput};
use ewh_core::{ColumnBatch, JoinCondition};

#[test]
fn every_kernel_agrees_across_layouts() {
    // Three sizes, including one below the routing chunk and one that
    // leaves a ragged tail window.
    for (n, seed) in [(1000usize, 3u64), (4096, 5), (30_000, 7)] {
        let reports = run_kernels(n, (n as i64 / 8).max(16), 4096, 1, seed);
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(
                r.checksums_match,
                "{} kernel: layouts disagree at n = {n}",
                r.kernel
            );
            assert!(r.aos.median > 0.0 && r.col.median > 0.0);
            assert!(r.aos.min <= r.aos.median && r.aos.median <= r.aos.max);
            assert!(r.col.min <= r.col.median && r.col.median <= r.col.max);
        }
    }

    // A sparse probe — one 256-tuple chunk against a whole region's build,
    // what the engine sweeps — makes the columnar kernel leap over the
    // build keys between matches, which the dense halves above never do.
    let tuples = ewh_bench::kernels::kernel_tuples(30_256, 30_000, 13);
    let (mut build, mut probe) = (tuples[..30_000].to_vec(), tuples[30_000..].to_vec());
    build.sort_by_key(|t| t.key);
    probe.sort_by_key(|t| t.key);
    let (build_cols, probe_cols) = (
        ColumnBatch::from_tuples(&build),
        ColumnBatch::from_tuples(&probe),
    );
    for cond in [JoinCondition::Equi, JoinCondition::Band { beta: 1 }] {
        assert_eq!(
            sweep_aos(&build, &probe, &cond),
            sweep_cols(&build_cols, &probe_cols, &cond),
            "sweep layouts disagree on a sparse probe under {cond:?}"
        );
    }
}

#[test]
fn columnar_sweep_does_not_regress_against_aos() {
    // Duplicate-heavy sorted sides with a band condition: every build key
    // has a contiguous probe partner run, the sweep's hot case. The margin
    // is deliberately loose (≥ 0.5×): this guards against a pathological
    // regression, not noise — in a debug build the gallop closures and
    // unrolled checksum lanes are not inlined, so the columnar sweep runs
    // below parity there. The real speedup floor is asserted under
    // `--release` by `release_kernels_beat_their_speedup_floors`.
    let tuples = ewh_bench::kernels::kernel_tuples(120_000, 12_000, 11);
    let cond = JoinCondition::Band { beta: 1 };
    let mut build = tuples[..60_000].to_vec();
    let mut probe = tuples[60_000..].to_vec();
    build.sort_by_key(|t| t.key);
    probe.sort_by_key(|t| t.key);
    let build_cols = ColumnBatch::from_tuples(&build);
    let probe_cols = ColumnBatch::from_tuples(&probe);

    let swept = build.len() + probe.len();
    let (aos_tps, aos_sum) = throughput(swept, 3, || sweep_aos(&build, &probe, &cond));
    let (col_tps, col_sum) = throughput(swept, 3, || sweep_cols(&build_cols, &probe_cols, &cond));
    assert_eq!(aos_sum, col_sum, "sweep layouts disagree");
    assert!(
        col_tps.median >= 0.5 * aos_tps.median,
        "columnar sweep regressed: {:.3e} tuples/s vs AoS {:.3e}",
        col_tps.median,
        aos_tps.median
    );
}

#[test]
fn release_kernels_beat_their_speedup_floors() {
    // The headline kernel claims: write-combining scatter routing,
    // radix/permutation sorting, and the galloping sweep each beat the AoS
    // baseline by a floor margin at out-of-cache-ish size — with
    // bit-identical checksums. Optimized code only: a debug build measures
    // bounds checks and `RefCell` overhead, not the kernels, so this test
    // is a no-op there (CI runs it again under `--release`).
    if cfg!(debug_assertions) {
        return;
    }
    let n = 400_000;
    let reports = run_kernels(n, n as i64 / 8, 4096, 5, 23);
    let floors = [("route", 1.3), ("sort", 1.5), ("sweep", 1.1)];
    for (kernel, floor) in floors {
        let r = reports
            .iter()
            .find(|r| r.kernel == kernel)
            .expect("kernel report present");
        assert!(r.checksums_match, "{kernel}: layouts disagree");
        assert!(
            r.speedup() >= floor,
            "{kernel} kernel speedup {:.2}x below its {floor}x floor \
             (aos median {:.3e} t/s, col median {:.3e} t/s)",
            r.speedup(),
            r.aos.median,
            r.col.median
        );
    }
}
