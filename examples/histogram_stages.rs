//! Figure 3 walkthrough: the three histogram stages on a small skewed band
//! join — sample matrix MS, coarsened matrix MC, and the equi-weight
//! histogram MH, with per-stage shapes and weights printed.
//!
//! Run with: `cargo run --release --example histogram_stages`

use ewh::core::histogram::{build_sample_matrix, coarsen_sample_matrix, regionalize};
use ewh::core::{CostModel, HistogramParams, JoinCondition, Key};

fn main() {
    // Skewed input: a hot key segment plus a uniform tail.
    let n = 40_000usize;
    let keys: Vec<Key> = (0..n as i64)
        .map(|i| {
            if i % 4 == 0 {
                5_000 + i % 200
            } else {
                (i * 17) % n as i64
            }
        })
        .collect();
    let cond = JoinCondition::Band { beta: 3 };
    let cost = CostModel::band();
    let params = HistogramParams {
        j: 8,
        ..Default::default()
    };

    println!("== stage 1: sampling -> MS ==");
    let ms = build_sample_matrix(&keys, &keys, &cond, &params);
    println!(
        "  ns            = {} x {} (rule: sqrt(2nJ))",
        ms.n_rows(),
        ms.n_cols()
    );
    println!("  input sample  = {} keys/relation", ms.si);
    println!(
        "  output sample = {} pairs (so = max(1063, 2*nsc), nsc = {})",
        ms.so, ms.nsc
    );
    println!(
        "  exact m       = {} output tuples (from Stream-Sample)",
        ms.m
    );
    println!(
        "  max MS cell weight sigma = {} milli-units",
        ms.max_cell_weight(&cost)
    );
    let w_opt = cost.weight(2 * n as u64, ms.m) / params.j as u64;
    println!(
        "  Lemma 3.1 check: sigma <= wOPT/2 = {} -> {}",
        w_opt / 2,
        ms.max_cell_weight(&cost) <= w_opt / 2
    );

    println!("\n== stage 2: coarsening -> MC (nc = 2J) ==");
    let mc = coarsen_sample_matrix(&ms, &cond, &cost, params.nc(), 4, true);
    println!("  MC            = {} x {}", mc.n_rows(), mc.n_cols());
    let max_cell = (0..mc.n_rows())
        .flat_map(|r| (0..mc.n_cols()).map(move |c| (r, c)))
        .filter(|&(r, c)| mc.grid.is_candidate(r as u32, c as u32))
        .map(|(r, c)| {
            mc.grid.weight(ewh::tiling::Rect::new(
                r as u32, c as u32, r as u32, c as u32,
            ))
        })
        .max()
        .unwrap_or(0);
    println!("  max candidate MC cell weight = {max_cell} milli-units");

    println!("\n== stage 3: regionalization -> MH (binary search + MONOTONICBSP) ==");
    let reg = regionalize(&mc, params.j, false);
    println!("  regions  = {} (J = {})", reg.regions.len(), params.j);
    println!("  delta    = {} milli-units", reg.delta);
    println!("  max region weight (estimated) = {}", reg.est_max_weight);
    println!("\n  per-region estimates:");
    for (i, r) in reg.regions.iter().enumerate() {
        println!(
            "    region {i}: input={:>7} output={:>8} weight={:>9}",
            r.est_input,
            r.est_output,
            r.est_weight(&cost)
        );
    }
    let weights: Vec<u64> = reg.regions.iter().map(|r| r.est_weight(&cost)).collect();
    let max = *weights.iter().max().unwrap();
    let mean = weights.iter().sum::<u64>() / weights.len() as u64;
    println!(
        "\n  equi-weight quality: max/mean = {:.2}",
        max as f64 / mean as f64
    );
}
