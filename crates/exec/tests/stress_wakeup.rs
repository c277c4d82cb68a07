//! Lost-wakeup stress: the adversarial schedule for the event-driven
//! scheduler's park/unpark protocol.
//!
//! Tiny bounded queues force a block on nearly every push and pop, many
//! more engine tasks than pool workers force every block to really park
//! (there is always other runnable work, so nothing is saved by the
//! NOTIFIED fast path), and forced migration fires Migrate/Adopt fences
//! mid-stream. A second seed set runs with reassignment off: those runs
//! still end on the coordinator's quiescence `Finish`, so its park is one
//! more edge a transition must wake. A registration that races a
//! transition — the classic lost wakeup — deadlocks the run (every worker
//! parked, the missed waiter never re-enqueued); a double wake or a stale
//! wake corrupts scheduling order, which the bit-identical
//! [`ExecMode::Batch`] oracle comparison catches. Repeated seeds explore
//! fresh interleavings on every run.
//!
//! CI runs this file under a named step with a hard timeout, so a hang
//! fails loudly instead of stalling the suite; the in-process watchdog
//! below aborts earlier with a diagnostic when something parks forever.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use ewh_core::{JoinCondition, Key, SchemeKind, Tuple};
use ewh_exec::{
    run_operator, AdaptiveConfig, EngineRuntime, ExecMode, OperatorConfig, RuntimeConfig,
};

/// Generous ceiling for the whole test (the real runs take a few seconds):
/// only a deadlocked pool can reach it.
const WATCHDOG: Duration = Duration::from_secs(120);

fn hotkey_tuples(n: usize, domain: Key, seed: u64) -> Vec<Tuple> {
    // Hot-key heavy: ~1/3 of tuples on key 0 keeps one region backlogged,
    // so migration triggers and queues actually fill.
    (0..n)
        .map(|i| {
            let mix = (i as u64).wrapping_mul(seed | 1).wrapping_add(0x9E37_79B9) % 100;
            let k = if mix < 33 {
                0
            } else {
                (mix as Key * 7 + i as Key) % domain
            };
            Tuple::new(k, i as u64)
        })
        .collect()
}

fn stress_config(seed: u64, reassign: bool) -> OperatorConfig {
    OperatorConfig {
        j: 4,
        // Many tasks per query: far more than the pool's workers, so
        // every block must park (siblings keep the workers saturated).
        threads: 8,
        seed,
        // Tiny buffers: nearly every push blocks, nearly every pop races a
        // push, the seal gate stays contended.
        morsel_tuples: 16,
        queue_tuples: 8,
        exchange_tuples: 64,
        adaptive: AdaptiveConfig {
            reassign,
            move_cost_factor: 0.0,
            migrate_backlog_tuples: 1,
            poll_micros: 20,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn tiny_queues_many_tasks_and_migration_never_lose_a_wakeup() {
    let done = std::sync::Arc::new(AtomicBool::new(false));
    let watchdog = {
        let done = done.clone();
        thread::spawn(move || {
            let step = Duration::from_millis(200);
            let mut waited = Duration::ZERO;
            while waited < WATCHDOG {
                if done.load(Ordering::Acquire) {
                    return;
                }
                thread::sleep(step);
                waited += step;
            }
            eprintln!(
                "stress_wakeup: no progress after {WATCHDOG:?} — a parked task \
                 was never woken (lost wakeup); aborting for CI diagnostics"
            );
            std::process::abort();
        })
    };

    // Twelve seeds under forced migration, six with reassignment off.
    for seed in 0..18u64 {
        let cfg = stress_config(seed, seed < 12);
        let r1 = hotkey_tuples(1500, 40, seed ^ 0x51);
        let r2 = hotkey_tuples(1500, 40, seed ^ 0x52);
        let cond = JoinCondition::Equi;

        // The batch oracle: two global barriers, no queues, no parking.
        let oracle_rt = EngineRuntime::new(2);
        let batch_cfg = OperatorConfig {
            mode: ExecMode::Batch,
            ..cfg.clone()
        };
        let oracle = run_operator(&oracle_rt, SchemeKind::Csio, &r1, &r2, &cond, &batch_cfg);
        assert!(oracle.join.output_total > 0);

        // Starve the pipelined runs: 2 workers multiplex 3 queries x 8
        // tasks, so parked tasks outnumber workers ~10x and every wake
        // must thread the registration/generation handshake correctly.
        let rt = EngineRuntime::with_config(RuntimeConfig {
            workers: 2,
            max_concurrent_queries: 3,
            memory_budget_tuples: None,
        });
        let pipelined_cfg = OperatorConfig {
            mode: ExecMode::Pipelined,
            ..cfg
        };
        let results: Vec<(u64, u64)> = thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let (rt, r1, r2, cond, cfg) = (&rt, &r1, &r2, &cond, &pipelined_cfg);
                    s.spawn(move || {
                        let run = run_operator(rt, SchemeKind::Csio, r1, r2, cond, cfg);
                        (run.join.output_total, run.join.checksum)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stressed query panicked"))
                .collect()
        });
        for (q, &(output, checksum)) in results.iter().enumerate() {
            assert_eq!(
                output, oracle.join.output_total,
                "seed {seed} query {q}: output drifted under park/unpark stress"
            );
            assert_eq!(
                checksum, oracle.join.checksum,
                "seed {seed} query {q}: checksum drifted under park/unpark stress"
            );
        }

        // The stress must actually exercise the waker path: with tasks
        // outnumbering workers this heavily, blocks (and therefore parks
        // and wakes) are structurally unavoidable.
        let m = rt.metrics();
        assert!(
            m.wakeups > 0,
            "seed {seed}: no task ever parked — the stress lost its teeth"
        );
    }

    done.store(true, Ordering::Release);
    watchdog.join().expect("watchdog panicked");
}
