//! What the workspace's integration tests share: one pool per test binary,
//! relations, and the key and condition strategies.

// Every test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use ewh::core::{IneqOp, JoinCondition, Key, Tuple};
use ewh::exec::EngineRuntime;
use proptest::prelude::*;

/// One pool for the whole test binary (matching the runtime's "build one
/// per process" model); 4 workers regardless of host, mirroring the
/// thread teams the pre-runtime engine spawned.
pub fn test_rt() -> &'static EngineRuntime {
    static RT: std::sync::OnceLock<EngineRuntime> = std::sync::OnceLock::new();
    RT.get_or_init(|| EngineRuntime::new(4))
}

/// One tuple per key, its position as the payload.
pub fn tuples(keys: &[Key]) -> Vec<Tuple> {
    let rows = keys.iter().enumerate();
    rows.map(|(i, &k)| Tuple::new(k, i as u64)).collect()
}

/// Up to `max_len` keys in `0..domain`.
pub fn keys_strategy(domain: i64, max_len: usize) -> impl Strategy<Value = Vec<Key>> {
    prop::collection::vec(0..domain, 0..max_len)
}

/// Equi, or a band of width below `betas`: what every scheme, Hash
/// included, supports.
pub fn equi_or_band(betas: i64) -> impl Strategy<Value = JoinCondition> {
    prop_oneof![
        Just(JoinCondition::Equi),
        (0..betas).prop_map(|beta| JoinCondition::Band { beta }),
    ]
}

/// Every condition kind: equi, band, the four inequalities and equi-band.
pub fn any_condition() -> impl Strategy<Value = JoinCondition> {
    prop_oneof![
        Just(JoinCondition::Equi),
        (0i64..6).prop_map(|beta| JoinCondition::Band { beta }),
        prop_oneof![
            Just(IneqOp::Lt),
            Just(IneqOp::Le),
            Just(IneqOp::Gt),
            Just(IneqOp::Ge)
        ]
        .prop_map(JoinCondition::Inequality),
        (2i64..8).prop_flat_map(|shift_log| {
            let shift = 1 << shift_log;
            (0..shift).prop_map(move |beta| JoinCondition::EquiBand { shift, beta })
        }),
    ]
}
