//! The framed transport as a drop-in carrier for the engine's mapper →
//! reducer contract, in three scenarios the `transport` subcommand prints
//! and `tests/transport_claims.rs` asserts on:
//!
//! * **wire identity** ([`wire_identity`], [`wire_run`]) — all four schemes
//!   over TCP links, one process, against the in-process batch oracle;
//!   forced migration ships sealed region state across the wire;
//! * **the link gate** ([`link_gate`]) — the communication-aware migration
//!   gate: the same straggler backlog is migrated across a fast link and
//!   declined across a thin one, by an operator and by a plan stage;
//! * **the two-process matrix** ([`two_process_matrix`]) — a worker process
//!   (this same binary, `transport --role worker`) binds a localhost TCP
//!   listener, the parent ships both relations over [`LinkSender`]s, and
//!   the worker runs the whole join — mappers and reducers — with its
//!   mapper → reducer deliveries *also* on framed links. Output counts and
//!   checksums must be bit-identical to the in-process oracle on all four
//!   schemes, frozen and with forced migration.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::time::Instant;

use ewh_core::{ColumnBatch, RoutingTable, SchemeKind, Tuple};
use ewh_exec::engine::{run_pipelined_io, CancelToken, EngineIo, Poll, Source};
use ewh_exec::{
    build_scheme, run_plan, AdaptiveConfig, EngineConfig, EngineRuntime, Exchange, ExecMode,
    FragmentPort, KeyFrom, LinkProfile, LinkReceiver, LinkSender, MemGauge, OperatorConfig,
    OperatorRun, OutputWork, PlanRun, PortPop, StageSpec, Straggler, TransportConfig,
};

use crate::cli::{f, Args, Flag, Kind, Report, Subcommand, Table};
use crate::harness::{forced_migration, run_with, RunConfig, SLOW_REDUCER};
use crate::workloads::{bcb, retail_hotkey, Workload};

const BCB_BETA: i64 = 2;

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Ci,
    SchemeKind::Csi,
    SchemeKind::Csio,
    SchemeKind::Hash,
];

/// Frozen placement, or forced migration off a [`SLOW_REDUCER`]. The
/// straggler matters doubly over the transport: a remote queue's
/// `used_tuples` only drains after the credit round-trip, so an idle-target
/// window is racy without a persistent backlog.
fn migration_knobs(migrate: bool) -> (AdaptiveConfig, Option<Straggler>) {
    if migrate {
        (forced_migration(20), Some(SLOW_REDUCER))
    } else {
        let frozen = AdaptiveConfig {
            reassign: false,
            ..Default::default()
        };
        (frozen, None)
    }
}

/// One pipelined run with mapper → reducer deliveries on `transport`
/// (`None`: in-process queues), frozen or under forced migration.
pub fn wire_run(
    rt: &EngineRuntime,
    w: &Workload,
    rc: &RunConfig,
    kind: SchemeKind,
    transport: Option<TransportConfig>,
    migrate: bool,
) -> OperatorRun {
    let (adaptive, straggler) = migration_knobs(migrate);
    let cfg = OperatorConfig {
        mode: ExecMode::Pipelined,
        transport,
        adaptive,
        straggler,
        ..rc.operator_config(w.cost)
    };
    run_with(rt, w, kind, &cfg)
}

/// The in-process batch run that anchors every comparison: output size and
/// checksum are properties of the join, not of any scheme or wire.
pub fn oracle(rt: &EngineRuntime, w: &Workload, rc: &RunConfig) -> OperatorRun {
    let cfg = OperatorConfig {
        mode: ExecMode::Batch,
        ..rc.operator_config(w.cost)
    };
    run_with(rt, w, SchemeKind::Ci, &cfg)
}

/// All four schemes over TCP links on BCB-2, frozen.
pub fn wire_identity(
    rt: &EngineRuntime,
    w: &Workload,
    rc: &RunConfig,
) -> Vec<(SchemeKind, OperatorRun)> {
    let tcp = Some(TransportConfig::tcp());
    SCHEMES
        .into_iter()
        .map(|kind| (kind, wire_run(rt, w, rc, kind, tcp, false)))
        .collect()
}

/// The link-gate scenario's three runs.
pub struct LinkGate {
    /// Every reducer behind a 1 GB/s, 0.1 ms link.
    pub fast: OperatorRun,
    /// Every reducer behind a 1 kB/s, 50 ms link.
    pub thin: OperatorRun,
    /// The thin links again, as the single stage of a plan.
    pub thin_plan: PlanRun,
}

/// The communication-aware gate on RETAIL (scale ≥ 1) with a
/// [`SLOW_REDUCER`]: the identical backlog is relieved by migration when
/// every reducer sits behind a fast link, and declined when shipping the
/// sealed state over a thin link would cost more than draining it in place.
/// A plan's stages go through the same driver, so they price the same
/// links: without them the flat gate's persistence waiver would move the
/// straggler's regions.
pub fn link_gate(rc: &RunConfig) -> LinkGate {
    let w = retail_hotkey(rc.scale.max(1.0), rc.seed);
    let rt = rc.runtime();
    let with_links = |bandwidth_bytes_per_sec: f64, rtt_secs: f64| OperatorConfig {
        mode: ExecMode::Pipelined,
        output_work: OutputWork::Count,
        adaptive: AdaptiveConfig {
            reassign: true,
            // Honest drain rate for a 20 µs/tuple straggler, so the
            // backlog-relief side of the gate is priced realistically.
            drain_tuples_per_sec: 50_000.0,
            ..Default::default()
        },
        straggler: Some(SLOW_REDUCER),
        links: Some(vec![
            LinkProfile {
                bandwidth_bytes_per_sec,
                rtt_secs,
            };
            rc.threads
        ]),
        ..rc.operator_config(w.cost)
    };
    let (fast, thin) = (with_links(1e9, 1e-4), with_links(1e3, 5e-2));
    let first = StageSpec {
        kind: SchemeKind::Csio,
        cond: w.cond,
    };
    LinkGate {
        fast: run_with(&rt, &w, SchemeKind::Csio, &fast),
        thin: run_with(&rt, &w, SchemeKind::Csio, &thin),
        thin_plan: run_plan(&rt, &w.r1, &w.r2, &first, &[], &thin),
    }
}

// ---------------------------------------------------------------------------
// The two-process matrix.
// ---------------------------------------------------------------------------

/// Credit window, in tuples, of the relation-shipping links.
const WINDOW: usize = 8192;

/// Worker role, the remote half of the distributed join: receives R1
/// (fully materialized) then R2 (streamed into the engine's probe side)
/// over two accepted socket connections, joins them with mapper → reducer
/// deliveries over TCP, and prints one `RESULT` line.
fn run_worker(args: &Args) {
    let rc = args.rc;
    let kind = args.get::<String>("--scheme");
    let kind = SCHEMES.into_iter().find(|k| Some(k.to_string()) == kind);
    let kind = kind.expect("--scheme is one of CI, CSI, CSIO, HASH");
    // Regenerate the workload deterministically (same binary, same seed):
    // the *scheme* is built from these keys — stand-in for the statistics
    // broadcast of a real cluster — while the tuple data the join actually
    // consumes arrives over the sockets below.
    let w = bcb(BCB_BETA, rc.scale, rc.seed);
    let cfg = rc.operator_config(w.cost);
    let (scheme, _) = build_scheme(kind, &w.r1, &w.r2, &w.cond, &cfg);
    let n_regions = scheme.num_regions();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    println!("LISTEN {}", listener.local_addr().expect("local_addr"));
    std::io::stdout().flush().expect("flush");

    // R1 first: the build side must be a scan, so drain it to resident
    // tuples before the engine starts. The credit window backpressures the
    // parent while we drain.
    let rt = rc.runtime();
    let rx1 = LinkReceiver::<ColumnBatch>::accept(&listener).expect("accept r1");
    let mut r1: Vec<Tuple> = Vec::new();
    rt.scope(|s| {
        s.spawn(|cx| loop {
            match rx1.take(Some(cx.waker())) {
                PortPop::Item(batch) => r1.extend(batch.iter_tuples()),
                PortPop::Empty => return Poll::Pending,
                PortPop::Closed => return Poll::Ready,
            }
        })
    });
    rx1.join().expect("r1 stream failed");

    // R2 streams straight into the probe side while the engine runs. The
    // receiver stages without touching any memory gauge, so a forwarding
    // task takes it and offers each batch to the exchange under the
    // engine's gauge contract (a producer charges what it pushes, see the
    // `exchange` module); the bounded exchange parks the task, which stops
    // the credits, which parks the parent.
    let rx2 = LinkReceiver::<ColumnBatch>::accept(&listener).expect("accept r2");
    let exchange = Exchange::new(WINDOW);
    let gauge = MemGauge::default();

    let mut engine_cfg = EngineConfig::for_tasks(rc.threads, cfg.morsel_tuples, rc.seed ^ 0x5F);
    engine_cfg.queue_tuples = cfg.queue_tuples;
    engine_cfg.work = OutputWork::Touch;
    engine_cfg.reducers = engine_cfg.reducers.min(n_regions.max(1));
    engine_cfg.transport = Some(TransportConfig::tcp());
    (engine_cfg.adaptive, engine_cfg.straggler) = migration_knobs(args.has("--migrate"));

    let region_to_reducer: Vec<u32> = (0..n_regions)
        .map(|r| (r % engine_cfg.reducers) as u32)
        .collect();
    let table = RoutingTable::new(&region_to_reducer);

    let start = Instant::now();
    let mut held = None;
    let out = rt.scope(|s| {
        s.spawn(|cx| loop {
            if let Some(batch) = held.take() {
                if let Err(batch) = exchange.offer(batch, Some(cx.waker())) {
                    held = Some(batch);
                    return Poll::Pending;
                }
            }
            match rx2.take(Some(cx.waker())) {
                PortPop::Item(batch) => {
                    gauge.add(batch.len() as u64);
                    held = Some(batch);
                }
                PortPop::Empty => return Poll::Pending,
                PortPop::Closed => {
                    gauge.sub(exchange.close() as u64);
                    return Poll::Ready;
                }
            }
        });
        let io = EngineIo {
            r1: &r1,
            r2: Source::Exchange(&exchange),
            router: &scheme.router,
            cond: &w.cond,
            table: &table,
            sink: None,
            key_from: KeyFrom::Probe,
            gauge: &gauge,
            cancel: &CancelToken::new(),
            spill: None,
            links: None,
        };
        run_pipelined_io(&rt, [(io, engine_cfg)]).remove(0)
    });
    let wall = start.elapsed().as_secs_f64();
    rx2.join().expect("r2 stream failed");
    assert!(!out.cancelled, "worker join cancelled by transport failure");

    println!(
        "RESULT {} {} {} {} {wall:.6}",
        out.output_total(),
        out.checksum(),
        out.stats.wire_bytes,
        out.stats.regions_migrated,
    );
    std::io::stdout().flush().expect("flush");
}

/// One row of the two-process matrix: what the worker process reported,
/// what the parent shipped to it, and the verdict.
pub struct WorkerRun {
    pub kind: SchemeKind,
    pub migrate: bool,
    pub output_total: u64,
    pub checksum: u64,
    pub wire_bytes: u64,
    pub regions_migrated: u64,
    pub wall_secs: f64,
    pub shipped_bytes: u64,
    /// Equal to the oracle, and at least one region moved if forced.
    pub ok: bool,
}

/// Ships one relation over a fresh socket connection in morsel-sized
/// batches, from a pool task that parks on the credit window. Returns the
/// bytes the sender put on the wire.
fn ship(addr: &str, tuples: &[Tuple]) -> u64 {
    let sender = LinkSender::connect(addr, WINDOW).expect("connect");
    let mut parts = tuples.chunks(4096).map(ColumnBatch::from_tuples);
    let mut next = parts.next();
    EngineRuntime::global().scope(|s| {
        s.spawn(|cx| {
            while let Some(batch) = next.take() {
                if let Err(batch) = sender.offer(batch, Some(cx.waker())) {
                    next = Some(batch);
                    return Poll::Pending;
                }
                next = parts.next();
            }
            Poll::Ready
        })
    });
    sender.finish().expect("finish")
}

/// One distributed run: re-executes this binary as the worker, ships R1
/// then R2, reads its `RESULT` line, reaps it, and compares with `oracle`.
fn run_distributed(
    rc: &RunConfig,
    w: &Workload,
    oracle: &OperatorRun,
    kind: SchemeKind,
    migrate: bool,
) -> WorkerRun {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.args(["transport", "--role", "worker"]);
    cmd.args(["--scheme", &kind.to_string()]);
    cmd.args(["--scale", &rc.scale.to_string()]);
    cmd.args(["--seed", &rc.seed.to_string()]);
    cmd.args(["--j", &rc.j.to_string()]);
    cmd.args(["--threads", &rc.threads.to_string()]);
    if migrate {
        cmd.arg("--migrate");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn worker");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout")).lines();
    let mut line = |prefix: &str| {
        let line = lines.next().expect("worker exited early").expect("read");
        let body = line.strip_prefix(prefix).map(str::to_string);
        body.unwrap_or_else(|| panic!("expected a `{prefix}` line, got `{line}`"))
    };
    let addr = line("LISTEN ");
    let shipped_bytes = ship(&addr, &w.r1) + ship(&addr, &w.r2);
    let result = line("RESULT ");
    let status = child.wait().expect("wait worker");
    assert!(status.success(), "worker exited with {status}");
    let mut fields = result.split_whitespace();
    let mut int = || -> u64 {
        let field = fields.next().expect("five RESULT fields");
        field.parse().expect("integer RESULT field")
    };
    let (output_total, checksum, wire_bytes, regions_migrated) = (int(), int(), int(), int());
    WorkerRun {
        kind,
        migrate,
        output_total,
        checksum,
        wire_bytes,
        regions_migrated,
        wall_secs: fields.next().and_then(|v| v.parse().ok()).expect("wall"),
        shipped_bytes,
        ok: (output_total, checksum) == (oracle.join.output_total, oracle.join.checksum)
            && (!migrate || regions_migrated > 0),
    }
}

/// The 4 schemes × {frozen, forced migration} two-process runs of BCB-2
/// against `oracle`. The worker's stage has at least two reducers, so the
/// forced rows always have one to migrate to.
pub fn two_process_matrix(rc: &RunConfig, w: &Workload, oracle: &OperatorRun) -> Vec<WorkerRun> {
    let rc = RunConfig {
        threads: rc.threads.max(2),
        ..*rc
    };
    let mut rows = Vec::new();
    for kind in SCHEMES {
        for migrate in [false, true] {
            rows.push(run_distributed(&rc, w, oracle, kind, migrate));
        }
    }
    rows
}

pub const SUBCOMMAND: Subcommand = Subcommand::new(
    "transport",
    &[
        Flag("--claims", Kind::Switch),
        Flag("--role", Kind::Text),
        Flag("--scheme", Kind::Text),
        Flag("--migrate", Kind::Switch),
    ],
    print,
);

/// `--claims` runs only the identity matrix and exits non-zero on any
/// mismatch (the CI hook). `--role worker`, `--scheme` and `--migrate` are
/// the re-exec protocol.
fn print(args: &Args, report: &mut Report) {
    if args.get::<String>("--role").as_deref() == Some("worker") {
        return run_worker(args);
    }
    let rc = args.rc;
    let w = bcb(BCB_BETA, rc.scale, rc.seed);
    let rt = rc.runtime();
    let oracle = oracle(&rt, &w, &rc);
    eprintln!(
        "oracle: {} tuples, checksum {:#x}",
        oracle.join.output_total, oracle.join.checksum
    );
    let status = |ok| if ok { "ok" } else { "MISMATCH" }.into();

    let matrix = two_process_matrix(&rc, &w, &oracle);
    let mut table = Table::new(
        "two-process distributed join vs. in-process oracle",
        &[
            "scheme",
            "migration",
            "output",
            "checksum",
            "migrated",
            "wall_s",
            "engine_wire_B",
            "shipped_B",
            "status",
        ],
    );
    for r in &matrix {
        table.row(vec![
            r.kind.into(),
            if r.migrate { "forced" } else { "frozen" }.into(),
            r.output_total.into(),
            format!("{:#x}", r.checksum).into(),
            r.regions_migrated.into(),
            f(r.wall_secs, 3),
            r.wire_bytes.into(),
            r.shipped_bytes.into(),
            status(r.ok),
        ]);
    }
    report.push(table);
    let all_ok = matrix.iter().all(|r| r.ok);
    if args.has("--claims") {
        if !all_ok {
            eprintln!("CLAIMS FAILED: distributed runs diverged from the oracle");
            std::process::exit(1);
        }
        println!("CLAIMS OK");
        return;
    }
    assert!(all_ok, "distributed runs diverged from the oracle");

    let mut table = Table::new(
        "one-process wire identity over TCP (frozen placement)",
        &["scheme", "output", "checksum", "wire_bytes", "status"],
    );
    let mut all_ok = true;
    for (kind, run) in wire_identity(&rt, &w, &rc) {
        let j = &run.join;
        let ok = (j.output_total, j.checksum) == (oracle.join.output_total, oracle.join.checksum)
            && j.wire_bytes > 0;
        all_ok &= ok;
        table.row(vec![
            kind.into(),
            j.output_total.into(),
            format!("{:#x}", j.checksum).into(),
            j.wire_bytes.into(),
            status(ok),
        ]);
    }
    report.push(table);
    assert!(
        all_ok,
        "a framed wire diverged from the oracle or carried no bytes"
    );

    let gate = link_gate(&rc);
    let mut table = Table::new(
        "communication-aware migration gate (RETAIL + straggler)",
        &["links", "bandwidth_B_s", "regions_migrated", "join_wall_s"],
    );
    for (links, bandwidth, migrated, wall) in [
        (
            "fast",
            1e9,
            gate.fast.join.regions_migrated,
            gate.fast.join.wall_join_secs,
        ),
        (
            "thin",
            1e3,
            gate.thin.join.regions_migrated,
            gate.thin.join.wall_join_secs,
        ),
        (
            "thin (plan stage)",
            1e3,
            gate.thin_plan.total.regions_migrated,
            gate.thin_plan.wall_secs,
        ),
    ] {
        table.row(vec![
            links.into(),
            f(bandwidth, 0),
            migrated.into(),
            f(wall, 3),
        ]);
    }
    report.push(table);
}
