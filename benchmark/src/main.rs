//! The repository's benchmark. See `benchmark/README.md` for what is
//! measured and why; `BENCHMARK.json` at the repository root for the
//! contract a driver runs it under.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload bicd_csio [--seed 236] [--seconds 16] [--trace 0|1] [--out DIR]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke
//! ```
//!
//! One run is one workload in one process: set-up, then calibrated timed
//! reps (`--trace 0`, the five end-to-end metrics) or three traced reps
//! (`--trace 1`, the per-layer metrics). The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod calib;
mod host;
mod json;
mod layers;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ewh_exec::EngineRuntime;

use json::Json;
use stats::{iqr_ratio, median, quartiles};
use workloads::{Run, Spec, Workload, DEFAULT_SEED, SPECS, THREADS};

/// The end-to-end metrics, `(name, unit)`, as `BENCHMARK.json` lists them.
/// Lower is better for all. (`failed_share` is the `failed` / `attempted`
/// pair of the result line: a metric that reads 0 at every healthy commit
/// cannot carry a relative bound.)
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("query_wall_cal", "cal"),
    ("query_cpu_cal", "cal"),
    ("peak_resident_bytes", "B"),
    ("max_weight_over_ideal", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed, checked queries at the end of every set-up: the first pays for
/// cold allocations and first-touch page faults, the second confirms the
/// runtime is in its steady state.
const WARM_UPS: usize = 2;
/// Timed reps a run makes at least, however short `--seconds` is.
const MIN_REPS: usize = 5;
const SMOKE_REPS: usize = 2;
/// Calibration passes whose third quartile is this far above the first mark
/// the run `noisy`: the host changed speed while the run measured.
const NOISY_CAL_RATIO: f64 = 1.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 16.0,
        trace: false,
        smoke: false,
        // Inside the benchmark's own directory whether the run starts at
        // the repository root (as a driver does) or in `benchmark/`.
        out: if Path::new("benchmark/Cargo.toml").exists() {
            "benchmark/out".into()
        } else {
            "out".into()
        },
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} takes {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => args.out = value("a directory")?.into(),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.smoke && args.workload.is_none() {
        let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
        return Err(format!(
            "--workload is required (one of {}) unless --smoke",
            names.join(", ")
        ));
    }
    Ok(args)
}

/// Everything set-up produces and a rep needs.
pub struct Ready {
    pub w: Workload,
    pub oracle: (u64, u64),
    pub rt: EngineRuntime,
    pub generate_s: f64,
}

/// One set-up: input generation and fingerprint, runtime construction, the
/// checked oracle, the spill budget where there is one, and the warm-up
/// queries on the fresh runtime — everything between "nothing" and "ready
/// for the first timed rep".
fn set_up(spec: &'static Spec, args: &Args) -> Result<Ready, String> {
    let start = Instant::now();
    let w = Workload::build(spec, args.seed, args.smoke, &args.out.join("spill"));
    let generate_s = start.elapsed().as_secs_f64();
    let rt = EngineRuntime::new(THREADS);
    let mut ready = Ready {
        oracle: w.oracle(&rt),
        w,
        rt,
        generate_s,
    };
    ready.w.derive_spill_budget(&ready.rt);
    for _ in 0..WARM_UPS {
        let warm_up = ready.w.query(&ready.rt, &ready.w.cfg).output();
        if warm_up != ready.oracle {
            return Err(format!(
                "workload `{}`: warm-up query returned {warm_up:?}, the oracle {:?}",
                spec.name, ready.oracle
            ));
        }
    }
    Ok(ready)
}

/// One timed query.
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// `None` when the query panicked.
    pub run: Option<Run>,
    /// Returned, and `(output_total, checksum)` equals the oracle's.
    pub ok: bool,
}

pub fn timed_rep(ready: &Ready, cfg: &ewh_exec::OperatorConfig) -> Rep {
    let cpu0 = host::process_cpu_secs();
    let start = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| ready.w.query(&ready.rt, cfg))).ok();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_secs() - cpu0;
    let ok = run.as_ref().is_some_and(|r| r.output() == ready.oracle);
    Rep {
        wall_s,
        cpu_s,
        run,
        ok,
    }
}

/// Calibrated timed reps: a calibration pass before every rep and one after
/// the last, on this thread while the pool is idle. Runs until `seconds`
/// are spent (at least `MIN_REPS`), or exactly `fixed_reps` when given.
fn measure(ready: &mut Ready, seconds: f64, fixed_reps: Option<usize>) -> (Vec<f64>, Vec<Rep>) {
    let start = Instant::now();
    let mut cal = vec![calib::calibrate()];
    let mut reps = Vec::new();
    loop {
        ready.w.draw_ticket(reps.len() as u64 + 1);
        reps.push(timed_rep(ready, &ready.w.cfg));
        cal.push(calib::calibrate());
        let done = match fixed_reps {
            Some(n) => reps.len() >= n,
            None => {
                let spent = start.elapsed().as_secs_f64();
                let per_rep = spent / reps.len() as f64;
                reps.len() >= MIN_REPS && spent + per_rep > seconds
            }
        };
        if done {
            return (cal, reps);
        }
    }
}

/// One measured metric: `(name, unit, value)`.
pub type Metric = (&'static str, &'static str, f64);

/// What one run of one workload produced.
struct Outcome {
    metrics: Vec<Metric>,
    /// Checked operations, and how many panicked or disagreed with the
    /// oracle.
    attempted: u64,
    failed: u64,
    /// The run's record beyond what every record carries.
    details: Vec<(&'static str, Json)>,
}

fn run_end_to_end(spec: &'static Spec, args: &Args) -> Result<Outcome, String> {
    // Set up several times and report the median: one sample of a second or
    // two of raw wall time follows the host's speed of the moment.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        drop(ready.take()); // one resident copy of the inputs at a time
        let start = Instant::now();
        ready = Some(set_up(spec, args)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut ready = ready.expect("at least one set-up");

    let fixed = args.smoke.then_some(SMOKE_REPS);
    let (cal, reps) = measure(&mut ready, args.seconds, fixed);
    let units = calib::units(&cal);

    let attempted = reps.len() as u64;
    let failed = reps.iter().filter(|r| !r.ok).count() as u64;
    // Metrics come from every rep that returned a result, correct or not:
    // a wrong answer is reported by `failed`, not hidden from the timings.
    let returned: Vec<(&Rep, &Run, f64)> = reps
        .iter()
        .zip(&units)
        .filter_map(|(rep, &u)| rep.run.as_ref().map(|run| (rep, run, u)))
        .collect();
    if returned.is_empty() {
        return Err(format!(
            "workload `{}`: every one of {attempted} queries panicked",
            spec.name
        ));
    }
    let series = |f: &dyn Fn(&Rep, &Run, f64) -> f64| -> Vec<f64> {
        returned
            .iter()
            .map(|(rep, run, u)| f(rep, run, *u))
            .collect()
    };
    let wall_cal = series(&|rep, _, u| rep.wall_s / u);
    let cpu_cal = series(&|rep, _, u| rep.cpu_s / u);
    let peak = series(&|_, run, _| run.peak_resident_bytes() as f64);
    let balance = series(&|_, run, _| run.max_weight_over_ideal(&ready.w.cfg.cost));
    let values = [
        median(&setup_s),
        median(&wall_cal),
        median(&cpu_cal),
        median(&peak),
        median(&balance),
    ];

    let (cal_q1, cal_q3) = quartiles(&cal);
    let noisy = cal_q3 / cal_q1 > NOISY_CAL_RATIO;
    if noisy {
        eprintln!(
            "warning: calibration passes ranged {cal_q1:.4}–{cal_q3:.4} s (quartiles): the \
             host changed speed during this run; treat it as noisy"
        );
    }
    let fp = ready.w.fingerprint();
    let details = vec![
        ("run_seconds", Json::Num(args.seconds)),
        ("reps", Json::Int(attempted)),
        ("failed_share", Json::Num(failed as f64 / attempted as f64)),
        ("noisy", Json::Bool(noisy)),
        (
            "inputs",
            Json::obj([
                (
                    "n",
                    Json::Arr(fp.n.iter().map(|&n| Json::Int(n as u64)).collect()),
                ),
                ("key_sum", Json::str(fp.key_sum.to_string())),
                ("key_xor", Json::str(fp.key_xor.to_string())),
                ("oracle_output_total", Json::Int(ready.oracle.0)),
                ("oracle_checksum", Json::str(ready.oracle.1.to_string())),
            ]),
        ),
        (
            "spread",
            Json::obj([
                ("query_wall_cal_iqr_ratio", Json::Num(iqr_ratio(&wall_cal))),
                ("query_cpu_cal_iqr_ratio", Json::Num(iqr_ratio(&cpu_cal))),
                ("calibration_s", Json::Num(median(&cal))),
                ("calibration_q3_over_q1", Json::Num(cal_q3 / cal_q1)),
            ]),
        ),
        (
            "series",
            Json::obj([
                ("setup_s", Json::nums(&setup_s)),
                ("calibration_s", Json::nums(&cal)),
                ("wall_s", Json::nums(&series(&|rep, _, _| rep.wall_s))),
                ("cpu_s", Json::nums(&series(&|rep, _, _| rep.cpu_s))),
                ("query_wall_cal", Json::nums(&wall_cal)),
                ("query_cpu_cal", Json::nums(&cpu_cal)),
                ("peak_resident_bytes", Json::nums(&peak)),
                ("max_weight_over_ideal", Json::nums(&balance)),
                (
                    "network_tuples",
                    Json::nums(&series(&|_, run, _| {
                        run.total_stats().network_tuples as f64
                    })),
                ),
            ]),
        ),
    ];
    Ok(Outcome {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect(),
        attempted,
        failed,
        details,
    })
}

fn run_traced(spec: &'static Spec, args: &Args) -> Result<Outcome, String> {
    let mut ready = set_up(spec, args)?;
    let reps = if args.smoke { 1 } else { layers::TRACED_REPS };
    let traced = layers::traced_run(&mut ready, reps)?;
    let chrome = args
        .out
        .join(format!("{}-seed{}.trace.json", spec.name, args.seed));
    std::fs::write(&chrome, trace::chrome_trace(traced.tracer.spans()))
        .map_err(|e| format!("writing {}: {e}", chrome.display()))?;
    let details = vec![
        ("reps", Json::Int(reps as u64)),
        ("noisy", Json::Bool(traced.noisy)),
        ("chrome_trace", Json::str(chrome.display().to_string())),
        ("spans", Json::Int(traced.tracer.spans().len() as u64)),
        (
            "replay_kernels_over_root",
            Json::nums(&traced.replay_kernels_over_root),
        ),
    ];
    Ok(Outcome {
        metrics: traced.metrics,
        attempted: traced.attempted,
        failed: traced.failed,
        details,
    })
}

/// Runs one workload, prints every metric by name with its unit, writes the
/// run's record under `--out`, and returns the contract's result line.
fn run_workload(spec: &'static Spec, args: &Args) -> Result<Json, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let outcome = if args.trace {
        run_traced(spec, args)?
    } else {
        run_end_to_end(spec, args)?
    };
    if args.smoke {
        println!("# smoke run: scaled-down inputs, numbers are not comparable");
    }
    for (name, unit, value) in &outcome.metrics {
        println!("{:<12} {name:<38} {value:>24} {unit}", spec.name);
    }
    let metrics = Json::obj(outcome.metrics.iter().map(|&(name, unit, value)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }));
    let info = host::HostInfo::collect();
    let mut record = vec![
        ("workload", Json::str(spec.name)),
        ("trace", Json::Bool(args.trace)),
        ("comparable", Json::Bool(!args.smoke)),
        ("seed", Json::Int(args.seed)),
        ("commit", Json::str(info.commit)),
        ("rustc", Json::str(info.rustc)),
        ("nproc", Json::Int(info.nproc as u64)),
        ("cpu_model", Json::str(info.cpu_model)),
        ("pool_threads", Json::Int(THREADS as u64)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", metrics.clone()),
    ];
    record.extend(outcome.details);
    let file = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        spec.name, args.seed, args.trace as u8
    ));
    std::fs::write(&file, format!("{}\n", Json::obj(record)))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    Ok(Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", metrics),
    ]))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if host::nproc() < THREADS {
        eprintln!(
            "error: the benchmark runs {THREADS} pool threads and needs at least {THREADS} \
             CPUs; this host offers {}",
            host::nproc()
        );
        return ExitCode::from(2);
    }
    let specs: Vec<&'static Spec> = match &args.workload {
        Some(name) => match workloads::spec(name) {
            Some(spec) => vec![spec],
            None => {
                eprintln!("error: unknown workload `{name}`");
                return ExitCode::from(2);
            }
        },
        None => SPECS.iter().collect(),
    };
    let mut last_line = None;
    for spec in specs {
        match run_workload(spec, &args) {
            Ok(line) => last_line = Some(line),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // The result line is the last line of standard output. A run whose
    // queries failed still exits 0: the line says `"correct": false` and
    // counts the failures, so that a driver records them.
    println!("{}", last_line.expect("at least one workload ran"));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "chain_plan",
            "--seed",
            "9",
            "--seconds",
            "14",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("chain_plan"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (9, 14.0, true, false)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[]).is_err(), "a workload is required");
        assert!(args(&["--smoke"]).is_ok());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    /// `BENCHMARK.json` and the program must name the same metrics with the
    /// same units and the same workloads.
    #[test]
    fn benchmark_json_matches_the_program() {
        let contract = include_str!("../../BENCHMARK.json");
        let listed = |name: &str, unit: &str| {
            contract.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END {
            assert!(listed(name, unit), "end-to-end metric {name} [{unit}]");
        }
        for (name, unit) in layers::PER_LAYER {
            assert!(listed(name, unit), "per-layer metric {name} [{unit}]");
        }
        for spec in &SPECS {
            assert!(
                contract.contains(&format!("{{\"name\": \"{}\", \"why\":", spec.name)),
                "workload {}",
                spec.name
            );
        }
        let names = contract.matches("\"name\": ").count();
        assert_eq!(
            names,
            END_TO_END.len() + layers::PER_LAYER.len() + SPECS.len()
        );
    }
}
