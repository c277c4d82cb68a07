//! The nested-loop oracle for candidacy on each side's key span: a content-
//! sensitive scheme reads candidacy on the keys each side holds, so a tuple
//! that no region can pair is routed nowhere. The batch oracle reads the
//! same scheme, so it cannot catch a tuple dropped that had a partner; the
//! nested loop can.
//!
//! The two relations' spans are disjoint, nested, straddling, or touching at
//! exactly β, so each case has tuples outside the other side's joinable span;
//! the inequalities also get keys at `Key::MIN` / `Key::MAX`. Every scheme
//! runs pipelined and batch. A scheme built from a *sample* narrower than its
//! relation keeps open bounds on that side and must still route every key.

mod common;

use common::*;
use ewh_core::{IneqOp, JoinCondition, Key, SchemeKind, Tuple};
use ewh_exec::{
    assign_regions, build_scheme_from_keys, execute_join, pair_tag, run_operator, shuffle,
    EngineConfig, ExecMode, OperatorConfig, OutputWork,
};
use proptest::prelude::*;

/// Where `R2`'s keys lie against `R1`'s.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Disjoint,
    /// One side's span inside the other's; `true`: `R2`'s inside `R1`'s.
    Nested(bool),
    Straddling,
    /// `R2` starts exactly β above `R1`'s last key, both ends present.
    Touching,
}

fn shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Disjoint),
        any::<bool>().prop_map(Shape::Nested),
        Just(Shape::Straddling),
        Just(Shape::Touching),
    ]
}

/// Equi, band, equi-band and the strict inequalities.
fn condition() -> impl Strategy<Value = JoinCondition> {
    prop_oneof![
        Just(JoinCondition::Equi),
        (0i64..6).prop_map(|beta| JoinCondition::Band { beta }),
        (0i64..8).prop_map(|beta| JoinCondition::EquiBand { shift: 8, beta }),
        Just(JoinCondition::Inequality(IneqOp::Lt)),
        Just(JoinCondition::Inequality(IneqOp::Gt)),
    ]
}

/// How far apart touching spans are: β, or 0 for a condition without one.
fn beta(cond: &JoinCondition) -> i64 {
    match *cond {
        JoinCondition::Band { beta } | JoinCondition::EquiBand { beta, .. } => beta,
        _ => 0,
    }
}

/// The key spans `(R1, R2)` of a shape; every span is at least 40 keys wide.
fn spans(shape: Shape, beta: i64) -> [(Key, Key); 2] {
    match shape {
        Shape::Disjoint => [(0, 99), (100 + beta + 40, 239 + beta)],
        Shape::Nested(true) => [(0, 199), (80, 119)],
        Shape::Nested(false) => [(80, 119), (0, 199)],
        Shape::Straddling => [(0, 119), (60, 179)],
        Shape::Touching => [(0, 99), (99 + beta, 198 + beta)],
    }
}

/// A key of `span` for each of `draws` (each in `0..1 << 16`), and the
/// span's two ends.
fn keys_in((lo, hi): (Key, Key), draws: &[u32]) -> Vec<Key> {
    let width = (hi - lo + 1) as u64;
    let mut keys: Vec<Key> = draws
        .iter()
        .map(|&d| lo + ((d as u64 * width) >> 16) as Key)
        .collect();
    keys.extend([lo, hi]);
    keys
}

fn relation(keys: &[Key], shift: u32) -> Vec<Tuple> {
    let rows = keys.iter().enumerate();
    rows.map(|(i, &k)| Tuple::new(k, (i as u64 + 1) << shift))
        .collect()
}

/// Output count and [`OutputWork::Count`] checksum of the nested loop.
fn nested_loop(r1: &[Tuple], r2: &[Tuple], cond: &JoinCondition) -> (u64, u64) {
    let mut out = (0, 0);
    for a in r1 {
        for b in r2.iter().filter(|b| cond.matches(a.key, b.key)) {
            out = (out.0 + 1, out.1 ^ pair_tag(a.payload, b.payload));
        }
    }
    out
}

fn kinds(cond: &JoinCondition) -> Vec<SchemeKind> {
    let mut kinds = vec![SchemeKind::Ci, SchemeKind::Csi, SchemeKind::Csio];
    if matches!(cond, JoinCondition::Equi | JoinCondition::Band { .. }) {
        kinds.push(SchemeKind::Hash);
    }
    kinds
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn every_scheme_equals_the_nested_loop_whatever_the_spans(
        shape in shape(),
        cond in condition(),
        draws1 in prop::collection::vec(0u32..1 << 16, 0..150),
        draws2 in prop::collection::vec(0u32..1 << 16, 0..150),
        extremes in (any::<bool>(), any::<bool>()),
        j in 1usize..7,
        seed in 0u64..1000,
    ) {
        let [s1, s2] = spans(shape, beta(&cond));
        let (mut k1, mut k2) = (keys_in(s1, &draws1), keys_in(s2, &draws2));
        if matches!(cond, JoinCondition::Inequality(_)) {
            // Keys no strict inequality can pair on one side of them.
            if extremes.0 {
                k1.extend([Key::MIN, Key::MAX]);
            }
            if extremes.1 {
                k2.extend([Key::MAX, Key::MIN]);
            }
        }
        let (r1, r2) = (relation(&k1, 12), relation(&k2, 0));
        let expect = nested_loop(&r1, &r2, &cond);
        for kind in kinds(&cond) {
            for mode in [ExecMode::Pipelined, ExecMode::Batch] {
                let cfg = OperatorConfig {
                    j,
                    threads: 2,
                    seed,
                    mode,
                    output_work: OutputWork::Count,
                    ..Default::default()
                };
                let run = run_operator(rt(), kind, &r1, &r2, &cond, &cfg);
                let got = (run.join.output_total, run.join.checksum);
                prop_assert_eq!(got, expect, "{} {:?} {:?} {:?}", kind, mode, shape, cond);
            }
        }
    }
}

fn rt() -> &'static ewh_exec::EngineRuntime {
    static RT: std::sync::OnceLock<ewh_exec::EngineRuntime> = std::sync::OnceLock::new();
    RT.get_or_init(test_rt)
}

#[test]
fn a_scheme_built_from_a_narrower_sample_still_routes_every_key() {
    // `R2` spans 0..2000; the sample that plans it holds only its middle
    // fifth. Its side keeps open bounds (its census stands for a sample,
    // not the relation), so the keys outside the sample still reach the
    // regions of the rows they join; `R1`, counted whole, clamps to its own
    // span, which `R2` straddles.
    let k1: Vec<Key> = (0..1500).map(|i| 500 + (i * 7) % 1500).collect();
    let k2: Vec<Key> = (0..2000).map(|i| (i * 13) % 2000).collect();
    let sample: Vec<Key> = k2
        .iter()
        .copied()
        .filter(|k| (800..1200).contains(k))
        .collect();
    let (r1, r2) = (relation(&k1, 12), relation(&k2, 0));
    for cond in [
        JoinCondition::Band { beta: 3 },
        JoinCondition::Inequality(IneqOp::Lt),
    ] {
        let expect = nested_loop(&r1, &r2, &cond);
        let cfg = OperatorConfig {
            j: 6,
            threads: 2,
            output_work: OutputWork::Count,
            ..Default::default()
        };
        for kind in [SchemeKind::Csi, SchemeKind::Csio] {
            let (n1, n2) = (r1.len() as u64, r2.len() as u64);
            let (scheme, _) = build_scheme_from_keys(kind, &k1, &sample, n1, n2, &cond, &cfg);
            let owners = assign_regions(&scheme, cfg.j, None, &cfg.cost);
            let batch = execute_join(shuffle(&r1, &r2, &scheme, 2, 5), &cond, &owners, &cfg);
            assert_eq!((batch.output_total, batch.checksum), expect, "{kind} batch");
            let mut engine = EngineConfig::for_tasks(2, 64, 5);
            engine.work = OutputWork::Count;
            let out = Stage::new(&r1, &r2, &scheme, cond, engine).run(rt()).out;
            let got = (out.output_total(), out.checksum());
            assert_eq!(got, expect, "{kind} pipelined");
        }
    }
}
