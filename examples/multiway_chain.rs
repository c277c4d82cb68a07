//! Multi-way joins as a *composable query plan* (§IV-B: "a multi-way join
//! can be efficiently executed using a sequence of our 2-way joins").
//!
//! Three sensor relations are chained with band conditions:
//! `A ⋈ B ON |a−b| ≤ 2`, then the intermediate streams into
//! `C ⋈ (A⋈B) ON |c−b| ≤ 2`. Unlike the paper's sequential formulation —
//! and unlike this example before the plan executor existed — the
//! intermediate is never materialized: the first operator's reducers ship
//! probe output through a bounded exchange into the second operator's
//! mappers, and the second operator's CSIO scheme is built before either
//! runs, from the exact key census of the intermediate — computed from the
//! censuses of `A` and `B` alone ("input relations are not necessarily base
//! relations", and their statistics need not be sampled either). What the
//! example prints about the plan is therefore the same on every run; only
//! the measured peak and makespans move.
//!
//! Run with: `cargo run --release --example multiway_chain`

use ewh::prelude::*;
use ewh::sampling::KeyedCounts;

fn relation(n: usize, stride: i64, seed: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| Tuple::new((i as i64 * stride + seed) % n as i64, i as u64))
        .collect()
}

fn main() {
    let n = 60_000;
    let a = relation(n, 7, 0);
    let b = relation(n, 11, 3);
    let c = relation(n, 13, 5);
    let cond = JoinCondition::Band { beta: 2 };
    let cfg = OperatorConfig {
        j: 8,
        ..OperatorConfig::default()
    };

    // The two-hop plan: (A ⋈ B) streamed into (C ⋈ ·). The root stage
    // emits intermediates keyed by its probe side (B's attribute — what
    // the next hop joins on); the chain stage builds on base relation C
    // and probes the stream.
    let first = StageSpec {
        kind: SchemeKind::Csio,
        cond,
    };
    let chain = [ChainStage {
        base: &c,
        spec: StageSpec {
            kind: SchemeKind::Csio,
            cond,
        },
    }];
    let run = run_plan(EngineRuntime::global(), &a, &b, &first, &chain, &cfg);

    for (i, stage) in run.stages.iter().enumerate() {
        println!(
            "stage {i}: {} over {} regions -> {} tuples ({})",
            stage.kind,
            stage.num_regions,
            stage.join.output_total,
            match i {
                0 => "planned from two base censuses".to_string(),
                _ => format!(
                    "planned from a propagated census of {} distinct keys",
                    stage.sample_tuples
                ),
            },
        );
    }
    println!(
        "\npipelined plan: {} outputs, peak resident {:.2} MiB, makespan {:.4}s",
        run.output_total,
        run.peak_resident_bytes as f64 / (1024.0 * 1024.0),
        run.wall_secs
    );

    // The classic execution for comparison: materialize A ⋈ B in full,
    // rebuild statistics from scratch with a second pass, then join.
    let mat = run_plan_materialized(&a, &b, &first, &chain, &cfg);
    println!(
        "materialized baseline: {} outputs, modeled peak {:.2} MiB, makespan {:.4}s",
        mat.output_total,
        mat.peak_resident_bytes as f64 / (1024.0 * 1024.0),
        mat.wall_secs
    );
    assert_eq!(run.output_total, mat.output_total);
    assert_eq!(run.checksum, mat.checksum);

    // Cross-check the chained result against a direct two-level count: the
    // intermediate is keyed by B's attribute, so each distinct b key
    // contributes (joinable A tuples) × (its own multiplicity) × (joinable
    // C tuples) — the band condition is symmetric, so joinability can be
    // counted from either side.
    let a_counts = KeyedCounts::census_of(a.iter().map(|t| t.key));
    let b_counts = KeyedCounts::census_of(b.iter().map(|t| t.key));
    let c_counts = KeyedCounts::census_of(c.iter().map(|t| t.key));
    let expect: u64 = b_counts
        .keys()
        .iter()
        .zip(b_counts.counts())
        .map(|(&bk, mult)| {
            let jr = cond.joinable_range(bk);
            a_counts.range_count(jr.lo, jr.hi) * mult * c_counts.range_count(jr.lo, jr.hi)
        })
        .sum();
    assert_eq!(run.output_total, expect);
    println!("\nchained 3-way output verified: {expect} tuples");
    println!(
        "intermediate ({} tuples) streamed through a {}-tuple exchange — never resident in full",
        run.intermediate_tuples(),
        cfg.exchange_tuples
    );
}
