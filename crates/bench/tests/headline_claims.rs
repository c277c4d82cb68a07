//! Regression tests pinning the paper's headline orderings at reduced scale,
//! so a refactor that silently breaks a result shape fails CI rather than
//! only being visible in the experiment binaries.

use ewh_bench::{bcb, beocd, beocd_gamma, bicd, run_all_schemes, run_scheme, RunConfig};
use ewh_core::SchemeKind;

fn rc() -> RunConfig {
    RunConfig {
        scale: 0.25,
        j: 16,
        threads: 2,
        csi_p: 256,
        ..Default::default()
    }
}

#[test]
fn csio_wins_the_cost_balanced_join() {
    let rc = rc();
    let w = bcb(3, rc.scale, rc.seed);
    let runs = run_all_schemes(&rc.runtime(), &w, &rc);
    let (ci, csi, csio) = (&runs[0], &runs[1], &runs[2]);
    assert!(
        csio.total_sim_secs < ci.total_sim_secs,
        "CSIO !< CI on BCB-3"
    );
    assert!(
        csio.total_sim_secs < csi.total_sim_secs,
        "CSIO !< CSI on BCB-3"
    );
}

#[test]
fn csi_degrades_with_band_width_relative_to_ci() {
    // The Fig 4b crossover: CSI/CI falls below 1 at low beta and above 1 at
    // high beta.
    let rc = rc();
    let narrow = bcb(1, rc.scale, rc.seed);
    let wide = bcb(16, rc.scale, rc.seed);
    let rt = rc.runtime();
    let ratio = |w: &ewh_bench::Workload| {
        let csi = run_scheme(&rt, w, SchemeKind::Csi, &rc).total_sim_secs;
        let ci = run_scheme(&rt, w, SchemeKind::Ci, &rc).total_sim_secs;
        csi / ci
    };
    let (rn, rw) = (ratio(&narrow), ratio(&wide));
    assert!(rn < 1.0, "CSI should beat CI on BCB-1 (ratio {rn:.2})");
    assert!(rw > 1.0, "CI should beat CSI on BCB-16 (ratio {rw:.2})");
}

#[test]
fn beocd_shows_join_product_skew_collapse() {
    let rc = rc();
    let w = beocd(rc.scale, beocd_gamma(rc.scale), rc.seed);
    let rt = rc.runtime();
    let csi = run_scheme(&rt, &w, SchemeKind::Csi, &rc);
    let csio = run_scheme(&rt, &w, SchemeKind::Csio, &rc);
    assert_eq!(csi.join.output_total, csio.join.output_total);
    let gap = csi.join.max_weight_milli as f64 / csio.join.max_weight_milli as f64;
    assert!(gap > 2.0, "JPS gap collapsed to {gap:.2}x");
    // CSI's imbalance must be visibly pathological, CSIO's near 1.
    assert!(csi.join.imbalance(&w.cost) > 3.0);
    assert!(csio.join.imbalance(&w.cost) < 1.8);
}

#[test]
fn ci_memory_exceeds_content_sensitive_schemes() {
    let rc = rc();
    let w = bicd(rc.scale, rc.seed);
    let runs = run_all_schemes(&rc.runtime(), &w, &rc);
    let (ci, csi, csio) = (&runs[0], &runs[1], &runs[2]);
    assert!(ci.join.mem_bytes as f64 > 3.0 * csio.join.mem_bytes as f64);
    // CSIO uses slightly more memory than CSI (balances on total work).
    assert!(csio.join.mem_bytes >= csi.join.mem_bytes);
}

#[test]
fn csio_estimate_is_accurate() {
    let rc = rc();
    let w = bcb(3, rc.scale, rc.seed);
    let run = run_scheme(&rc.runtime(), &w, SchemeKind::Csio, &rc);
    let est = run.build.est_max_weight as f64;
    let real = run.join.max_weight_milli as f64;
    assert!(
        (est - real).abs() / real < 0.15,
        "CSIO-est off by {:.1}%",
        (est - real).abs() / real * 100.0
    );
}

#[test]
fn the_csio_scheme_does_not_depend_on_build_threads() {
    // At two or more threads the census pair is counted side by side and
    // MONOTONICBSP's split table is filled in two halves: the scheme — its
    // regions, the router's grid rectangles and block shapes, δ — must come
    // out the same as at one thread.
    use ewh_core::{build_csio, HistogramParams, Key, Router, Tuple};
    let keys = |ts: &[Tuple]| ts.iter().map(|t| t.key).collect::<Vec<Key>>();
    for w in [bicd(0.25, 236), beocd(0.25, beocd_gamma(0.25), 236)] {
        let (k1, k2) = (keys(&w.r1), keys(&w.r2));
        let build = |threads| {
            let params = HistogramParams {
                j: 32,
                seed: 236,
                threads,
                ..Default::default()
            };
            let scheme = build_csio(&k1, &k2, &w.cond, &w.cost, &params);
            let Router::Grid(router) = &scheme.router else {
                panic!("{}: CSIO routes by grid", w.name);
            };
            let router = format!("{router:?}");
            (scheme.regions, router, scheme.build.delta)
        };
        let one = build(1);
        assert!(one.0.len() > 16, "{}: {} regions", w.name, one.0.len());
        for threads in [2, 3] {
            assert!(build(threads) == one, "{}: threads {threads}", w.name);
        }
    }
}
