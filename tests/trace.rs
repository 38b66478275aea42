//! Observability guarantees: the span tree a traced build records is
//! deterministic for a fixed seed, and the Chrome trace-event export is
//! well-formed JSON that Perfetto can load (per-track events properly
//! nested, one named track per farm worker).

use pibe::{Image, ImageFarm, PibeConfig, ValidationPolicy};
use pibe_harden::DefenseSet;
use pibe_kernel::measure::{collect_profile, run_latency, run_throughput};
use pibe_kernel::workloads::{lmbench_suite, Benchmark, MacroBench, WorkloadSpec};
use pibe_kernel::{Kernel, KernelSpec, Syscall};
use pibe_profile::{Budget, Profile};
use pibe_serve::{DeltaStream, EpochOutcome, PibeService, ServeConfig, StreamConfig};
use pibe_sim::SimConfig;
use serde_json::Value;
use std::sync::Mutex;
use std::time::Duration;

mod common;

/// The tracer is process-global; tests that record serialize on this and
/// leave the tracer disabled and drained behind them.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn lab() -> (Kernel, Profile) {
    let kernel = Kernel::generate(KernelSpec::test());
    let profile = collect_profile(
        &kernel,
        &WorkloadSpec::lmbench(),
        &lmbench_suite(8),
        2,
        0xBA5E,
    )
    .expect("profiling succeeds");
    (kernel, profile)
}

const STAGES: [&str; 8] = [
    "stage.validate",
    "stage.clone",
    "stage.icp",
    "stage.inline",
    "stage.harden",
    "stage.audit",
    "stage.size",
    "stage.verify",
];

/// Two single-threaded builds of the same configuration from the same
/// fixed-seed kernel/profile record the identical span forest: same track,
/// same nesting depths, same names, in the same order. Each build starts
/// from a copy of the kernel module whose memoized analyses are cold, so
/// both record the module's one call-site scan.
#[test]
fn span_tree_is_deterministic_for_a_fixed_seed() {
    let _g = lock();
    let (kernel, profile) = lab();
    let config = PibeConfig::full(Budget::P99_9, DefenseSet::ALL);

    let mut runs = Vec::new();
    for _ in 0..2 {
        let base = kernel.module.clone();
        pibe_trace::set_enabled(true);
        pibe_trace::set_track_name("test");
        let _ = pibe_trace::take();
        Image::builder(&base)
            .profile(&profile)
            .config(config)
            .build()
            .expect("traced build succeeds");
        pibe_trace::set_enabled(false);
        runs.push(pibe_trace::take().structure());
    }

    assert!(!runs[0].is_empty(), "a traced build records spans");
    assert_eq!(runs[0], runs[1], "span structure diverges across runs");
    for stage in STAGES {
        assert!(
            runs[0].iter().any(|(_, _, name)| name == stage),
            "missing span for {stage}"
        );
    }
    // Stage spans nest under the top-level pipeline span.
    let build_depth = runs[0]
        .iter()
        .find(|(_, _, name)| name == "pipeline.build")
        .expect("pipeline.build span recorded")
        .1;
    assert!(runs[0]
        .iter()
        .filter(|(_, _, name)| name.starts_with("stage."))
        .all(|(_, depth, _)| *depth > build_depth));
}

/// Per-stage verification is timed as its own `stage.verify` span, a
/// direct child of the stage it checks, so `BuildMetrics::verify_ns` rather
/// than the stage's time carries it. Under `TrustProfile` the stages run
/// unverified and record no such child.
#[test]
fn per_stage_verification_is_a_child_span_of_each_guarded_stage() {
    let _g = lock();
    let (kernel, profile) = lab();
    let guarded = PibeConfig {
        dce: true,
        ..PibeConfig::full(Budget::P99_9, DefenseSet::ALL)
    };
    let trusted = PibeConfig {
        validation: ValidationPolicy::TrustProfile,
        ..guarded
    };
    for (config, verified) in [(guarded, true), (trusted, false)] {
        pibe_trace::set_enabled(true);
        pibe_trace::set_track_name("test");
        let _ = pibe_trace::take();
        Image::builder(&kernel.module)
            .profile(&profile)
            .config(config)
            .threads(1)
            .build()
            .expect("traced build succeeds");
        pibe_trace::set_enabled(false);
        let spans = pibe_trace::take().structure();
        for stage in ["stage.icp", "stage.inline", "stage.dce", "stage.harden"] {
            let at = spans
                .iter()
                .position(|(_, _, name)| name == stage)
                .unwrap_or_else(|| panic!("missing span for {stage}"));
            let depth = spans[at].1;
            let verify_child = spans[at + 1..]
                .iter()
                .take_while(|(_, d, _)| *d > depth)
                .any(|(_, d, name)| *d == depth + 1 && name == "stage.verify");
            assert_eq!(
                verify_child, verified,
                "{stage} under {:?}: stage.verify child present = {verify_child}",
                config.validation
            );
        }
    }
}

/// The Chrome trace-event export of a parallel farm build parses as JSON,
/// names one track per worker, covers every pipeline stage, and keeps each
/// track's complete (`ph:"X"`) events properly nested.
#[test]
fn chrome_export_is_wellformed_and_covers_the_farm() {
    let _g = lock();
    let (kernel, profile) = lab();
    pibe_trace::set_enabled(true);
    pibe_trace::set_track_name("test");
    let _ = pibe_trace::take();

    let farm = ImageFarm::new(kernel.module, profile).with_threads(2);
    let configs = vec![
        PibeConfig::lto_with(DefenseSet::ALL),
        PibeConfig::full(Budget::P99_9, DefenseSet::ALL),
        PibeConfig::lax(DefenseSet::ALL),
        PibeConfig::pibe_baseline(),
    ];
    farm.images(&configs).expect("matrix builds");
    pibe_trace::set_enabled(false);
    let json = pibe_trace::take().to_chrome_json();

    let doc: Value = serde_json::from_str(&json).expect("chrome JSON parses");
    let Some(Value::Array(events)) = doc.get("traceEvents") else {
        panic!("traceEvents is not an array");
    };
    assert!(!events.is_empty());

    // One named thread track per farm worker.
    let thread_names: Vec<&str> = events
        .iter()
        .filter(|e| str_field(e, "ph") == Some("M") && str_field(e, "name") == Some("thread_name"))
        .filter_map(|e| e.get("args").and_then(|a| str_field(a, "name")))
        .collect();
    for worker in ["worker-0", "worker-1"] {
        assert!(
            thread_names.contains(&worker),
            "missing thread_name metadata for {worker} in {thread_names:?}"
        );
    }

    // Every pipeline stage shows up as at least one complete event.
    let spans: Vec<&Value> = events
        .iter()
        .filter(|e| str_field(e, "ph") == Some("X"))
        .collect();
    for stage in STAGES {
        assert!(
            spans.iter().any(|e| str_field(e, "name") == Some(stage)),
            "no X event for {stage}"
        );
    }

    // Per track, X events are properly nested: sorted by start time
    // (longest first on ties), a span either sits inside the enclosing one
    // or starts after it ends.
    let mut tids: Vec<u64> = spans.iter().map(|e| num_field(e, "tid") as u64).collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(tids.len() >= 2, "expected one span track per worker");
    for tid in tids {
        let mut track: Vec<(f64, f64)> = spans
            .iter()
            .filter(|e| num_field(e, "tid") as u64 == tid)
            .map(|e| {
                let ts = num_field(e, "ts");
                (ts, ts + num_field(e, "dur"))
            })
            .collect();
        track.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut open: Vec<f64> = Vec::new();
        for (start, end) in track {
            while open.last().is_some_and(|&top_end| top_end <= start) {
                open.pop();
            }
            if let Some(&top_end) = open.last() {
                assert!(
                    end <= top_end,
                    "span [{start}, {end}] straddles its parent's end {top_end} on tid {tid}"
                );
            }
            open.push(end);
        }
    }
}

/// The string value of an object field, when present and a string.
fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// The numeric value of an object field; panics when absent (every Chrome
/// `X` event must carry ts/dur/tid).
fn num_field(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::U64(n)) => *n as f64,
        Some(Value::I64(n)) => *n as f64,
        Some(Value::F64(n)) => *n,
        other => panic!("field {key} is not a number: {other:?}"),
    }
}

/// Tracing off is the default: a build and a measurement with
/// `PIBE_TRACE` unset record nothing at all.
#[test]
fn disabled_tracing_records_nothing() {
    let _g = lock();
    pibe_trace::set_enabled(false);
    let _ = pibe_trace::take();
    let (kernel, profile) = lab();
    let image = Image::builder(&kernel.module)
        .profile(&profile)
        .config(PibeConfig::pibe_baseline())
        .build()
        .expect("build succeeds");
    let bench = Benchmark {
        syscall: Syscall::Read,
        iterations: 4,
        warmup: 1,
    };
    let wl = WorkloadSpec::lmbench();
    run_latency(&image.module, &kernel, &wl, bench, SimConfig::default(), 7)
        .expect("measurement succeeds");
    assert!(pibe_trace::take().is_empty());
}

/// Every traced simulated run records a span named by its kind and
/// benchmark, and a `sim.insts` counter sample of the instructions it
/// executed.
#[test]
fn simulated_runs_record_named_spans_and_instruction_counts() {
    let _g = lock();
    let kernel = Kernel::generate(KernelSpec::test());
    let wl = WorkloadSpec::lmbench();
    let bench = Benchmark {
        syscall: Syscall::Read,
        iterations: 4,
        warmup: 1,
    };
    let nginx = MacroBench::nginx(3);
    pibe_trace::set_enabled(true);
    pibe_trace::set_track_name("test");
    let _ = pibe_trace::take();
    let cfg = SimConfig::default();
    let (_, latency, _) =
        run_latency(&kernel.module, &kernel, &wl, bench, cfg, 7).expect("latency run");
    let (_, throughput) = run_throughput(
        &kernel.module,
        &kernel,
        &WorkloadSpec::nginx(),
        &nginx,
        cfg,
        7,
    )
    .expect("throughput run");
    collect_profile(&kernel, &wl, &[bench], 3, 7).expect("profiling runs");
    pibe_trace::set_enabled(false);
    let data = pibe_trace::take();

    let count = |name: &str| data.spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("sim.latency.read"), 1);
    assert_eq!(count("sim.throughput.Nginx"), 1);
    assert_eq!(count("sim.profile.lmbench"), 3, "one span per round");
    let insts: Vec<u64> = data
        .counters
        .iter()
        .filter(|c| c.name == "sim.insts")
        .map(|c| c.value)
        .collect();
    assert_eq!(insts.len(), 5, "one sample per run");
    assert!(insts.contains(&latency.insts));
    assert!(insts.contains(&throughput.insts));
    assert!(insts.iter().all(|&n| n > 0));
}

/// `ir.call_sites` spans recorded by `run`, with tracing on. Each is one
/// O(module) scan of a module's call sites.
fn call_site_scans(run: impl FnOnce()) -> usize {
    pibe_trace::set_enabled(true);
    pibe_trace::set_track_name("test");
    let _ = pibe_trace::take();
    run();
    pibe_trace::set_enabled(false);
    let data = pibe_trace::take();
    data.spans
        .iter()
        .filter(|s| s.name == "ir.call_sites")
        .count()
}

/// Profile validation reads the base module's memoized call sites, so an
/// unchanged base is scanned exactly once: by the bootstrap build of a
/// service that then validates every shard delta of eight epochs, drift
/// rebuilds included, and by the first of a ladder of builds from one
/// base. A second scan means validation went back to O(module) per call.
#[test]
fn an_unchanged_base_module_is_scanned_for_call_sites_once() {
    let _g = lock();
    let (kernel, profile) = lab();
    let serve = ServeConfig {
        watchdog: Duration::from_secs(600),
        max_retries: 1,
        freeze_after: 3,
        backoff: Duration::ZERO,
        threads: 1,
    };
    let stream_base = common::stream_base(&profile);
    let mut outcomes = Vec::new();
    let scans = call_site_scans(|| {
        let mut svc = PibeService::bootstrap(
            kernel.module.clone(),
            profile.clone(),
            PibeConfig {
                dce: true,
                ..PibeConfig::lax(DefenseSet::ALL)
            },
            serve,
        )
        .expect("bootstrap build");
        let mut stream = DeltaStream::new(
            &kernel.module,
            &stream_base,
            StreamConfig {
                shards: 4,
                corrupt_permille: 250,
                drift_every: 4,
                ..StreamConfig::default()
            },
            0x5CA7,
        );
        for epoch in 0..8 {
            let record = svc.ingest_epoch(stream.epoch_deltas(epoch));
            outcomes.push(record.outcome.clone());
        }
        assert!(!svc.quarantine().is_empty(), "no delta was quarantined");
    });
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, EpochOutcome::Rebuilt { .. })),
        "no epoch rebuilt: {outcomes:?}"
    );
    assert!(
        outcomes.contains(&EpochOutcome::FastPath),
        "no epoch took the fast path: {outcomes:?}"
    );
    assert_eq!(scans, 1, "serve run rescanned its base module");

    let configs = [
        PibeConfig::lto_with(DefenseSet::ALL),
        PibeConfig::full(Budget::P99_9, DefenseSet::ALL),
        PibeConfig::lax(DefenseSet::ALL),
        PibeConfig {
            dce: true,
            ..PibeConfig::lax(DefenseSet::ALL)
        },
        PibeConfig::pibe_baseline(),
    ];
    let base = kernel.module.clone();
    let scans = call_site_scans(|| {
        for config in configs {
            Image::builder(&base)
                .profile(&profile)
                .config(config)
                .build()
                .expect("ladder build");
        }
    });
    assert_eq!(scans, 1, "build ladder rescanned its base module");
}
