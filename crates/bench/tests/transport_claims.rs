//! Transport claims, asserted in CI: the framed transport is a drop-in
//! carrier for the engine's mapper → reducer contract (bit-identical
//! results over real TCP sockets, migration included), a replicated
//! fragment crosses a link once per reducer, not once per region,
//! the migration coordinator's move-cost gate is communication-aware (the
//! same backlog migrates across a fast link and is declined across a thin
//! one), and the two-process `transport` subcommand reproduces the
//! in-process oracle over real sockets.

use std::process::Command;
use std::sync::Mutex;

use ewh_bench::transport::{link_gate, oracle, wire_identity, wire_run};
use ewh_bench::{bcb, RunConfig};
use ewh_core::{SchemeKind, FRAME_HEADER_BYTES, TUPLE_BYTES};
use ewh_exec::TransportConfig;

/// Timing-sensitive claims must not share the machine with each other.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// All four schemes over TCP links produce the exact output count and
/// checksum of the in-process batch oracle — the framed transport honors
/// the push/pop contract bit for bit.
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
    let oracle = oracle(&rt, &w, &rc);
    let runs = wire_identity(&rt, &w, &rc);
    assert_eq!(runs.len(), 4, "four schemes");
    for (kind, run) in &runs {
        assert_eq!(run.join.output_total, oracle.join.output_total, "{kind:?}");
        assert_eq!(run.join.checksum, oracle.join.checksum, "{kind:?}");
        assert!(
            run.join.wire_bytes > 0,
            "{kind:?}: framed deliveries must be accounted on the wire"
        );
    }
}

/// One copy per reducer on the wire. CI at J = 32 is a 4 × 8 matrix, so it
/// delivers every input tuple to 6 regions on average; on two reducers a
/// row band's 8 regions sit 4 and 4, and a column's 4 on one reducer. So at
/// most 2 copies' worth of slab bytes cross the wire per input tuple, plus
/// each delivery's header and sibling ids — at most one delivery per region
/// a morsel touches.
#[test]
fn ci_puts_one_copy_per_reducer_on_the_wire() {
    let _serial = serial();
    let rc = RunConfig {
        scale: 0.3,
        j: 32,
        threads: 2,
        ..Default::default()
    };
    let w = bcb(2, rc.scale, rc.seed);
    let rt = rc.runtime();
    let tcp = Some(TransportConfig::tcp());
    let run = wire_run(&rt, &w, &rc, SchemeKind::Ci, tcp, false);
    let input = (w.r1.len() + w.r2.len()) as u64;
    assert_eq!(w.r1.len(), w.r2.len());
    assert_eq!(
        run.join.network_tuples,
        6 * input,
        "tuples delivered to regions"
    );
    let j = rc.j as u64;
    let headers = run.join.morsels_routed * j * (FRAME_HEADER_BYTES as u64 + 4 * j);
    let slabs = 2 * TUPLE_BYTES * input;
    let wire = run.join.wire_bytes;
    assert!(
        wire <= slabs + headers,
        "{wire} wire bytes for {input} input tuples: over 2 copies ({slabs}) + headers ({headers})"
    );
    eprintln!(
        "CI j=32 on 2 reducers: {:.2} wire bytes per input tuple ({:.2} copies)",
        wire as f64 / input as f64,
        wire as f64 / (TUPLE_BYTES * input) as f64
    );
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
    let frozen = wire_run(&rt, &w, &rc, SchemeKind::Csio, None, false);
    let moved = wire_run(
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
    let gate = link_gate(&rc);
    let (fast, thin, thin_plan) = (&gate.fast, &gate.thin, &gate.thin_plan);
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
    assert_eq!(thin_plan.output_total, thin.join.output_total);
    assert_eq!(thin_plan.checksum, thin.join.checksum);
    assert_eq!(
        thin_plan.total.regions_migrated, 0,
        "a plan stage must price the thin link like the operator does"
    );
}

/// The two-process harness: the parent ships both relations over real
/// sockets to a worker process that runs the join (its deliveries on TCP
/// links too), all four schemes with migration forced on and off, checked
/// against the in-process oracle by the binary itself (`--claims` exits
/// non-zero on any mismatch).
#[test]
fn two_processes_over_real_sockets_reproduce_the_oracle() {
    let _serial = serial();
    let out = Command::new(env!("CARGO_BIN_EXE_ewh-bench"))
        .args(["transport", "--claims"])
        .args(["--scale", "0.2", "--threads", "4", "--j", "8"])
        .output()
        .expect("spawn ewh-bench transport");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "transport --claims failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("CLAIMS OK"), "unexpected output:\n{stdout}");
}
