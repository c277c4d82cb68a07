//! Transport claims, asserted in CI: the framed transport is a drop-in
//! carrier for the engine's mapper → reducer contract (bit-identical
//! results over loopback pipes and real TCP sockets, migration included),
//! the migration coordinator's move-cost gate is communication-aware (the
//! same backlog migrates across a fast link and is declined across a thin
//! one), and the two-process `distributed_join` harness reproduces the
//! in-process oracle over real sockets.

use std::process::Command;
use std::sync::Mutex;

use ewh_bench::{bcb, retail_hotkey, RunConfig, Workload};
use ewh_core::SchemeKind;
use ewh_exec::{
    run_operator, run_plan, AdaptiveConfig, EngineRuntime, ExecMode, LinkProfile, OperatorConfig,
    OperatorRun, OutputWork, StageSpec, Straggler, TransportConfig,
};

/// Timing-sensitive claims must not share the machine with each other.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn transport_run(
    rt: &EngineRuntime,
    w: &Workload,
    rc: &RunConfig,
    kind: SchemeKind,
    transport: Option<TransportConfig>,
    migrate: bool,
) -> OperatorRun {
    let cfg = OperatorConfig {
        mode: ExecMode::Pipelined,
        transport,
        // Forced-migration thresholds need a persistent backlog: a remote
        // queue's `used_tuples` only drains after the credit round-trip,
        // so an idle-target window is racy without a straggler.
        adaptive: if migrate {
            AdaptiveConfig {
                reassign: true,
                move_cost_factor: 0.0,
                migrate_backlog_tuples: 1,
                poll_micros: 20,
                ..Default::default()
            }
        } else {
            AdaptiveConfig {
                reassign: false,
                ..Default::default()
            }
        },
        straggler: migrate.then_some(Straggler {
            reducer: 0,
            nanos_per_tuple: 20_000,
        }),
        ..rc.operator_config(w)
    };
    run_operator(rt, kind, &w.r1, &w.r2, &w.cond, &cfg)
}

/// All four schemes over loopback pipes and TCP sockets produce the exact
/// output count and checksum of the in-process batch oracle — the framed
/// transport honors the push/pop contract bit for bit.
#[test]
fn framed_wires_reproduce_the_oracle_on_every_scheme() {
    let _serial = serial();
    let rc = RunConfig {
        scale: 0.3,
        j: 8,
        threads: 4,
        ..Default::default()
    };
    let w = bcb(2, rc.scale, rc.seed);
    let rt = rc.runtime();
    let oracle = run_operator(
        &rt,
        SchemeKind::Ci,
        &w.r1,
        &w.r2,
        &w.cond,
        &OperatorConfig {
            mode: ExecMode::Batch,
            ..rc.operator_config(&w)
        },
    );
    for kind in [
        SchemeKind::Ci,
        SchemeKind::Csi,
        SchemeKind::Csio,
        SchemeKind::Hash,
    ] {
        for transport in [TransportConfig::loopback(), TransportConfig::tcp()] {
            let run = transport_run(&rt, &w, &rc, kind, Some(transport), false);
            assert_eq!(run.join.output_total, oracle.join.output_total, "{kind:?}");
            assert_eq!(run.join.checksum, oracle.join.checksum, "{kind:?}");
            assert!(
                run.join.wire_bytes > 0,
                "{kind:?}: framed deliveries must be accounted on the wire"
            );
        }
    }
}

/// A forced migration over TCP sockets ships sealed region state across a
/// real socket and still lands on the oracle's answer.
#[test]
fn migration_over_tcp_preserves_the_answer() {
    let _serial = serial();
    let rc = RunConfig {
        scale: 0.3,
        j: 8,
        threads: 4,
        ..Default::default()
    };
    let w = bcb(2, rc.scale, rc.seed);
    let rt = rc.runtime();
    let frozen = transport_run(&rt, &w, &rc, SchemeKind::Csio, None, false);
    let moved = transport_run(
        &rt,
        &w,
        &rc,
        SchemeKind::Csio,
        Some(TransportConfig::tcp()),
        true,
    );
    assert_eq!(moved.join.output_total, frozen.join.output_total);
    assert_eq!(moved.join.checksum, frozen.join.checksum);
    assert!(
        moved.join.regions_migrated >= 1,
        "forced thresholds must migrate at least one region over the wire"
    );
    assert!(moved.join.migration_tuples > 0);
}

/// The communication-aware gate: the identical straggler backlog is
/// relieved by migration when every reducer sits behind a fast link, and
/// declined when shipping the sealed state over a thin link would cost
/// more than draining the backlog in place.
#[test]
fn the_move_cost_gate_prices_the_link() {
    let _serial = serial();
    let rc = RunConfig {
        scale: 1.0,
        j: 16,
        threads: 4,
        ..Default::default()
    };
    let w = retail_hotkey(rc.scale, rc.seed);
    let rt = rc.runtime();
    let with_links = |bandwidth: f64, rtt: f64| {
        OperatorConfig {
            mode: ExecMode::Pipelined,
            output_work: OutputWork::Count,
            adaptive: AdaptiveConfig {
                reassign: true,
                // Honest drain rate for a 20 µs/tuple straggler, so the
                // backlog-relief side of the gate is priced realistically.
                drain_tuples_per_sec: 50_000.0,
                ..Default::default()
            },
            straggler: Some(Straggler {
                reducer: 0,
                nanos_per_tuple: 20_000,
            }),
            links: Some(vec![
                LinkProfile {
                    bandwidth_bytes_per_sec: bandwidth,
                    rtt_secs: rtt,
                };
                rc.threads
            ]),
            ..rc.operator_config(&w)
        }
    };
    let run_with_links = |bandwidth: f64, rtt: f64| {
        let cfg = with_links(bandwidth, rtt);
        run_operator(&rt, SchemeKind::Csio, &w.r1, &w.r2, &w.cond, &cfg)
    };
    let fast = run_with_links(1e9, 1e-4);
    let thin = run_with_links(1e3, 5e-2);
    assert_eq!(fast.join.output_total, thin.join.output_total);
    assert_eq!(fast.join.checksum, thin.join.checksum);
    assert!(
        fast.join.regions_migrated >= 1,
        "a fast link must admit the profitable migration"
    );
    assert_eq!(
        thin.join.regions_migrated, 0,
        "a thin link must decline the same backlog: shipping costs more than draining"
    );

    // A plan's stages go through the same driver, so they price the same
    // links: without them the flat gate's persistence waiver would move the
    // straggler's regions.
    let first = StageSpec {
        kind: SchemeKind::Csio,
        cond: w.cond,
    };
    let thin_plan = run_plan(&rt, &w.r1, &w.r2, &first, &[], &with_links(1e3, 5e-2));
    assert_eq!(thin_plan.output_total, thin.join.output_total);
    assert_eq!(thin_plan.checksum, thin.join.checksum);
    assert_eq!(
        thin_plan.total.regions_migrated, 0,
        "a plan stage must price the thin link like the operator does"
    );
}

/// The two-process harness: mapper and reducer halves in separate OS
/// processes over real sockets, all four schemes with migration forced on
/// and off, checked against the in-process oracle by the binary itself
/// (`--claims` exits non-zero on any mismatch).
#[test]
fn two_processes_over_real_sockets_reproduce_the_oracle() {
    let _serial = serial();
    let out = Command::new(env!("CARGO_BIN_EXE_distributed_join"))
        .args(["--claims", "--scale", "0.2", "--threads", "4", "--j", "8"])
        .output()
        .expect("spawn distributed_join");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "distributed_join --claims failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("CLAIMS OK"), "unexpected output:\n{stdout}");
}
