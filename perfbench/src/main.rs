//! The repository's benchmark: three workloads over the PIBE pipeline,
//! timed end to end and, in a separate traced run, layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload reproduce|build-matrix|serve-drift \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root: the metric names and units come from
//! `BENCHMARK.json` there. The last line of standard output is the result
//! object (`correct`, `attempted`, `failed`, `metrics`); the line before
//! it is the host fingerprint. A copy of both is written under
//! `perfbench/results/`. See `perfbench/README.md`.

mod build_matrix;
mod checks;
mod host;
mod layers;
mod probes;
mod reproduce;
mod serve_drift;
mod stats;

use layers::Metrics;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use stats::Checks;
use std::process::ExitCode;

/// The seed used when `--seed` is not given: the simulation seed the
/// `tables` binary measures with.
const DEFAULT_SEED: u64 = 0xBA5E;

/// Worker processes an untraced run splits its time budget across. Each
/// has its own address-space layout and hash keys, which move a
/// process's timings by several percent; pooling the samples of three
/// averages that out.
const PROCESSES: usize = 3;

/// Samples the p90 of the operation latencies must rest on: ten beyond it.
const MIN_OPS: usize = 100;

/// What a workload run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed: simulation (profiling and measurement) and the delta
    /// stream. The kernel itself is fixed, see [`kernel_spec`].
    pub seed: u64,
    /// Measurement budget of the timed loop.
    pub seconds: f64,
    /// Operations the timed loop must complete, whatever the budget.
    pub min_ops: usize,
    /// Whether this is the traced run (per-layer figures).
    pub trace: bool,
    /// Whether this process also measures the output-quality figures and
    /// runs the costlier output checks (the first worker does).
    pub first: bool,
    /// The thread count every layer is pinned to.
    pub threads: usize,
}

/// The kernel every workload compiles, at `scale`: the paper census's
/// structure seed. The kernel is the program under test, not traffic:
/// seeds reshape it enough (±20% of simulated work between seeds) to
/// swamp the regressions the bounds are meant to catch, so `--seed`
/// drives the traffic over it instead.
pub fn kernel_spec(scale: f64) -> pibe_kernel::KernelSpec {
    pibe_kernel::KernelSpec {
        scale,
        ..pibe_kernel::KernelSpec::paper()
    }
}

/// What one process measured and checked: raw samples, pooled across
/// worker processes before any statistic is taken.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Outcome {
    /// Operations attempted (tables, builds, epochs, set-ups).
    pub attempted: u64,
    /// Operations that failed: errors, panics, rolled-back or frozen
    /// epochs.
    pub failed_ops: u64,
    /// Output checks.
    pub checks: Checks,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Seconds of each pass.
    pub pass_s: Vec<f64>,
    /// Milliseconds of each operation.
    pub op_ms: Vec<f64>,
    /// Peak resident set of each pass, in MiB.
    pub rss_mb: Vec<f64>,
    /// A digest of outputs that must not depend on the process.
    pub digest: u64,
    /// Output-quality figures (first worker only).
    pub quality: Metrics,
    /// Per-layer figures (traced runs only).
    pub layers: Metrics,
}

impl Outcome {
    /// Folds another worker's outcome into this one.
    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed_ops += other.failed_ops;
        self.checks.run += other.checks.run;
        self.checks.failed += other.checks.failed;
        self.setup_s.extend(other.setup_s);
        self.pass_s.extend(other.pass_s);
        self.op_ms.extend(other.op_ms);
        self.rss_mb.extend(other.rss_mb);
        self.quality.extend(other.quality);
        self.checks.check(self.digest == other.digest, || {
            format!(
                "output digest {:016x} differs between worker processes ({:016x})",
                other.digest, self.digest
            )
        });
    }

    /// The end-to-end figures: medians and nearest-rank percentiles of the
    /// pooled samples, plus the quality figures.
    fn end_to_end(&self) -> Metrics {
        let mut m = self.quality.clone();
        m.insert("setup_s".into(), stats::median(&self.setup_s));
        m.insert("pass_s".into(), stats::median(&self.pass_s));
        m.insert("op_ms_p50".into(), stats::percentile(&self.op_ms, 50.0));
        m.insert("op_ms_p90".into(), stats::percentile(&self.op_ms, 90.0));
        m.insert("peak_rss_mb".into(), stats::median(&self.rss_mb));
        m
    }
}

/// FNV-1a over `bytes`, continuing from `h` (start at [`FNV_START`]).
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in worker processes: which worker this is.
    part: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        part: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {val:?}");
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|_| bad("a number"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--part" => args.part = Some(val.parse().map_err(|_| bad("an integer"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`.
fn declared(spec: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    let Some(Value::Array(items)) = spec.get(key) else {
        return Err(format!("BENCHMARK.json has no {key} list"));
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(name)), Some(Value::Str(unit))) => Ok((name.clone(), unit.clone())),
            _ => Err(format!("malformed {key} entry in BENCHMARK.json")),
        })
        .collect()
}

/// The reported metrics: exactly the declared ones. End-to-end figures
/// must all be measured; a per-layer figure a workload does not exercise
/// reads 0. Anything measured but undeclared is an error.
fn select(
    declared: &[(String, String)],
    measured: &Metrics,
    all_required: bool,
) -> Result<Value, String> {
    if let Some(extra) = measured
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not declared in BENCHMARK.json"));
    }
    let mut out = Vec::new();
    for (name, unit) in declared {
        let value = match measured.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is not finite: {v}")),
            None if all_required => return Err(format!("metric {name} was not measured")),
            None => 0.0,
        };
        out.push((
            name.clone(),
            serde_json::json!({"value": value, "unit": unit.as_str()}),
        ));
    }
    Ok(Value::Object(out))
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the named workload in this process.
fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    Ok(match name {
        "reproduce" => reproduce::run(ctx),
        "build-matrix" => build_matrix::run(ctx),
        "serve-drift" => serve_drift::run(ctx),
        other => {
            return Err(format!(
                "unknown workload {other:?} (reproduce, build-matrix, serve-drift)"
            ))
        }
    })
}

/// Runs worker `part` as a child process and reads back its outcome; a
/// worker that dies or prints no outcome counts as one failed operation.
fn run_worker(args: &Args, part: usize, seconds: f64) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0", "--part", &part.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start worker {part}: {e}"))?;
    let parsed = String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .and_then(|line| serde_json::from_str::<Outcome>(line).ok());
    Ok(parsed.unwrap_or_else(|| {
        eprintln!("worker {part} failed: {}", output.status);
        Outcome {
            attempted: 1,
            failed_ops: 1,
            ..Outcome::default()
        }
    }))
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let spec_text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("run from the repository root: BENCHMARK.json: {e}"))?;
    let spec: Value =
        serde_json::from_str(&spec_text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let metrics = declared(
        &spec,
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
    )?;

    // One process owns the machine: every pool is pinned to its width.
    let threads = host::nproc();
    std::env::set_var("PIBE_BUILD_THREADS", threads.to_string());
    std::env::remove_var("PIBE_ARCH");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        min_ops: MIN_OPS,
        trace: args.trace,
        first: true,
        threads,
    };
    if let Some(part) = args.part {
        let ctx = Ctx {
            seconds: args.seconds,
            min_ops: MIN_OPS.div_ceil(PROCESSES),
            first: part == 0,
            ..ctx
        };
        let outcome = run_workload(&args.workload, &ctx)?;
        println!(
            "{}",
            serde_json::to_string(&outcome).map_err(|e| format!("{e:?}"))?
        );
        return Ok(ExitCode::SUCCESS);
    }

    let calibration = host::calibration_ms();
    let mut outcome;
    let measured = if args.trace {
        outcome = run_workload(&args.workload, &ctx)?;
        let mut layers = std::mem::take(&mut outcome.layers);
        layers.insert("host.calibration_ms".into(), calibration);
        layers
    } else {
        let seconds = args.seconds / PROCESSES as f64;
        outcome = run_worker(&args, 0, seconds)?;
        for part in 1..PROCESSES {
            outcome.absorb(run_worker(&args, part, seconds)?);
        }
        outcome.end_to_end()
    };
    let mut failed = outcome.failed_ops + outcome.checks.failed;
    if !args.trace {
        let beyond = stats::beyond_p90(outcome.op_ms.len());
        if beyond < 10 {
            eprintln!(
                "only {} operation samples ({beyond} beyond p90, 10 needed)",
                outcome.op_ms.len()
            );
            failed += 1;
        }
    }
    let attempted = outcome.attempted.max(1);
    let correct = failed == 0;
    let result = serde_json::json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": select(&metrics, &measured, !args.trace)?,
    });
    let fingerprint = serde_json::json!({
        "workload": args.workload.as_str(),
        "seed": args.seed,
        "trace": args.trace,
        "checks_run": outcome.checks.run,
        "output_digest": format!("{:016x}", outcome.digest),
        "error_rate": failed as f64 / attempted as f64,
        "host": host::fingerprint(calibration),
    });
    let fingerprint_line = serde_json::to_string(&fingerprint).map_err(|e| format!("{e:?}"))?;
    let result_line = serde_json::to_string(&result).map_err(|e| format!("{e:?}"))?;
    let dir = std::path::Path::new("perfbench/results");
    let record = format!("{fingerprint_line}\n{result_line}\n");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.jsonl",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, record)) {
        eprintln!("cannot write {}: {e}", file.display());
    }
    println!("{fingerprint_line}");
    println!("{result_line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
