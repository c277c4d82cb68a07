//! AoS vs columnar kernel throughput: batch routing, region-run sorting,
//! and the staircase sweep, each implemented over `Vec<Tuple>` (the
//! pre-columnar layout) and over `ewh_core::ColumnBatch` (what the engine
//! runs on).
//! Runs two size tiers — a cache-resident one and a larger out-of-cache
//! one, where the write-combining and galloping kernels earn their keep —
//! and reports min/median/max tuples/sec per layout across the timed reps
//! plus the median-over-median columnar speedup, asserting the two layouts
//! fold identical output checksums at both tiers.
//!
//! ```sh
//! cargo run --release -p ewh-bench --bin kernel_bench -- \
//!     [--scale 1.0] [--json BENCH_kernels.json]
//! ```

use ewh_bench::kernels::{run_kernels, KernelReport};
use ewh_bench::{commit, json_escape, print_table, RunConfig};

/// Tuples per kernel input at scale 1.0 for the first tier: the columns
/// fit in L2/L3, so this tier measures the loop bodies themselves.
const BASE_TUPLES: usize = 400_000;
/// Second-tier multiplier: 4x pushes the working set (both layouts plus
/// their output copies) well past typical last-level caches, so this tier
/// measures how the kernels behave when every miss goes to DRAM.
const OUT_OF_CACHE_FACTOR: usize = 4;
/// Key domain: ~8 duplicates per key at scale 1.0, so band sweeps find
/// sizable contiguous partner runs.
const DOMAIN_PER_TUPLE: f64 = 1.0 / 8.0;
/// Routing window, matching the engine's default morsel granularity.
const CHUNK: usize = 4096;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let rc = RunConfig::from_args();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let reps = 9;
    let tiers: Vec<(usize, i64, Vec<KernelReport>)> = [1, OUT_OF_CACHE_FACTOR]
        .iter()
        .map(|&factor| {
            let n = ((BASE_TUPLES * factor) as f64 * rc.scale) as usize;
            let n = n.max(4096);
            let domain = ((n as f64 * DOMAIN_PER_TUPLE) as i64).max(16);
            let reports = run_kernels(n, domain, CHUNK, reps, rc.seed);
            for r in &reports {
                assert!(
                    r.checksums_match,
                    "{} (n {n}): AoS and columnar layouts disagree on the output checksum",
                    r.kernel
                );
            }
            (n, domain, reports)
        })
        .collect();

    for (n, domain, reports) in &tiers {
        let table: Vec<Vec<String>> = reports
            .iter()
            .map(|r| {
                vec![
                    r.kernel.to_string(),
                    format!("{:.2e}/{:.2e}/{:.2e}", r.aos.min, r.aos.median, r.aos.max),
                    format!("{:.2e}/{:.2e}/{:.2e}", r.col.min, r.col.median, r.col.max),
                    format!("{:.2}", r.speedup()),
                ]
            })
            .collect();
        print_table(
            &format!("kernel_bench (n {n}, domain {domain}, chunk {CHUNK}, reps {reps})"),
            &[
                "kernel",
                "aos min/med/max t_per_s",
                "col min/med/max t_per_s",
                "speedup",
            ],
            &table,
        );
    }

    let mut json = String::from("{\n");
    // Every kernel runs on the calling thread: `threads` is 1 whatever the
    // host offers.
    json.push_str(&format!(
        "  \"bench\": \"kernel_bench\",\n  \"commit\": \"{}\",\n  \"host_cores\": {},\n  \"threads\": 1,\n  \"chunk\": {},\n  \"reps\": {},\n  \"seed\": {},\n  \"tiers\": [\n",
        json_escape(&commit()),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        CHUNK,
        reps,
        rc.seed
    ));
    for (t, (n, domain, reports)) in tiers.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tuples\": {}, \"domain\": {}, \"results\": [\n",
            n, domain
        ));
        for (i, r) in reports.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"kernel\": \"{}\", \"aos_tuples_per_sec\": {{\"min\": {:.1}, \"median\": {:.1}, \"max\": {:.1}}}, \"col_tuples_per_sec\": {{\"min\": {:.1}, \"median\": {:.1}, \"max\": {:.1}}}, \"speedup\": {:.4}, \"checksums_match\": {}}}{}\n",
                r.kernel,
                r.aos.min,
                r.aos.median,
                r.aos.max,
                r.col.min,
                r.col.median,
                r.col.max,
                r.speedup(),
                r.checksums_match,
                if i + 1 < reports.len() { "," } else { "" },
            ));
        }
        json.push_str(&format!(
            "    ]}}{}\n",
            if t + 1 < tiers.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    match json_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("writing the JSON report failed");
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
}
