//! Criterion bench: a reducer's sweep of its regions at three probe-chunk
//! sizes — the 256-tuple floor (`EngineConfig::probe_chunk` at 1 024-tuple
//! morsels), the reducer's cadence (an eighth of the build, at least the
//! floor) and the whole probe side at once — over the 32 CSIO regions of
//! `bicd(4.0, 236)` at J = 32, the benchmark's `bicd_csio`. Builds come
//! from the shuffle, sorted; probes are cut in arrival order and each chunk
//! is sorted, as a reducer sweeps them, before the clock starts. All three
//! must agree on `(count, checksum)`: the sweep distributes over any
//! partition of the probe side into chunks.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use ewh_bench::bicd;
use ewh_core::{ColumnBatch, JoinCondition, SchemeKind, Tuple};
use ewh_exec::{build_scheme, shuffle, sweep_columns, OperatorConfig, OutputWork};

const FLOOR: usize = 256;

/// A region's probe-chunk size, given its build size.
type ChunkRule = fn(usize) -> usize;

/// One region: its sorted build and its probe side in sorted chunks.
struct Region {
    build: ColumnBatch,
    chunks: Vec<ColumnBatch>,
}

/// Every region, its probe side cut into chunks of `chunk(build size)`.
fn regions(builds: &[Vec<Tuple>], probes: &[Vec<Tuple>], chunk: ChunkRule) -> Vec<Region> {
    builds
        .iter()
        .zip(probes)
        .map(|(build, probe)| {
            let mut build = ColumnBatch::from_tuples(build);
            build.sort_by_key();
            let chunks = probe
                .chunks(chunk(build.len()).max(1))
                .map(|c| {
                    let mut c = ColumnBatch::from_tuples(c);
                    c.sort_by_key();
                    c
                })
                .collect();
            Region { build, chunks }
        })
        .collect()
}

fn sweep_all(regions: &[Region], cond: &JoinCondition) -> (u64, u64) {
    let (mut count, mut checksum) = (0, 0);
    for r in regions {
        for chunk in &r.chunks {
            let (n, x) = sweep_columns(&r.build, chunk, cond, OutputWork::Touch);
            count += n;
            checksum ^= x;
        }
    }
    (count, checksum)
}

fn bench_sweep_chunks(c: &mut Criterion) {
    let w = bicd(4.0, 236);
    let cfg = OperatorConfig {
        j: 32,
        threads: 2,
        seed: 236,
        cost: w.cost,
        ..Default::default()
    };
    let (scheme, _) = build_scheme(SchemeKind::Csio, &w.r1, &w.r2, &w.cond, &cfg);
    let shuffled = shuffle(&w.r1, &w.r2, &scheme, cfg.threads, cfg.seed);
    let cadences: [(&str, ChunkRule); 3] = [
        ("floor_256", |_| FLOOR),
        ("eighth_of_build", |build| FLOOR.max(build / 8)),
        ("whole_region", |_| usize::MAX),
    ];

    let mut group = c.benchmark_group("sweep_chunks_bicd_csio");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let mut answers = Vec::new();
    for (name, chunk) in cadences {
        let regions = regions(&shuffled.r1, &shuffled.r2, chunk);
        answers.push(sweep_all(&regions, &w.cond));
        group.bench_function(name, |b| b.iter(|| sweep_all(&regions, &w.cond)));
    }
    group.finish();
    assert!(
        answers.windows(2).all(|a| a[0] == a[1]),
        "the chunk size moved the join: {answers:?}"
    );
    println!("sweep_chunks: (count, checksum) = {:?}", answers[0]);
}

criterion_group!(benches, bench_sweep_chunks);
criterion_main!(benches);
