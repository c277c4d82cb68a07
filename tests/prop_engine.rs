//! Property-based equivalence of the two execution modes: for arbitrary
//! relations, every scheme kind, and Equi/Band conditions, the morsel-driven
//! pipelined engine must produce exactly the batch oracle's `output_total`
//! and XOR `checksum` — the batch path materializes the full shuffle and is
//! trivially correct, so agreement here certifies the pipeline's routing,
//! seal protocol, and chunked probe sweeps end to end.

mod common;

use common::*;
use ewh::core::SchemeKind;
use ewh::exec::{run_operator, ExecMode, OperatorConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn pipelined_engine_equals_batch_oracle(
        k1 in keys_strategy(100, 250),
        k2 in keys_strategy(100, 250),
        cond in equi_or_band(5),
        j in 1usize..7,
        seed in 0u64..1000,
        morsel_tuples in 1usize..300,
    ) {
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        let base = OperatorConfig {
            j,
            threads: 3,
            seed,
            morsel_tuples,
            ..Default::default()
        };
        for kind in [SchemeKind::Ci, SchemeKind::Csi, SchemeKind::Csio, SchemeKind::Hash] {
            let batch = run_operator(test_rt(),
                kind,
                &r1,
                &r2,
                &cond,
                &OperatorConfig { mode: ExecMode::Batch, ..base.clone() },
            );
            let pipelined = run_operator(test_rt(),
                kind,
                &r1,
                &r2,
                &cond,
                &OperatorConfig { mode: ExecMode::Pipelined, ..base.clone() },
            );
            prop_assert_eq!(
                pipelined.join.output_total,
                batch.join.output_total,
                "{} {:?} morsel={}",
                kind,
                cond,
                morsel_tuples
            );
            prop_assert_eq!(
                pipelined.join.checksum,
                batch.join.checksum,
                "{} {:?} checksum",
                kind,
                cond
            );
            // Deterministic routers move identical volume in both modes.
            prop_assert_eq!(pipelined.join.network_tuples, batch.join.network_tuples);
        }
    }
}
