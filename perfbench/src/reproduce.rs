//! `reproduce`: the paper-table regeneration on a reduced-scale kernel.
//!
//! One pass is `Lab::new` (kernel generation, profile collection, the LTO
//! baseline — the set-up) followed by every `pibe::experiments` function
//! the `tables` binary calls, in its order. Every pass gets a fresh lab,
//! so the image farm's cache starts cold each time and absorbs the
//! repeated requests of one regeneration, as it does for a user. This is
//! the only workload where simulated measurement and the farm's cache do
//! most of the work.

use crate::checks::{self, StageTotals};
use crate::layers::{self_ns, Layers};
use crate::probes;
use crate::stats::{median, ms, ns_since, Checks, Deadline};
use crate::{fnv, kernel_spec, Ctx, Outcome, FNV_START};
use pibe::experiments::{self, defense_sweep, ExperimentError, Lab};
use pibe::report::Table;
use pibe::{eval, DefenseSet, PibeConfig};
use pibe_kernel::measure::collect_macro_profile;
use pibe_kernel::workloads::MacroBench;
use pibe_kernel::WorkloadSpec;
use pibe_profile::Budget;
use pibe_sim::SimConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Kernel scale (1.0 = the paper's census).
const SCALE: f64 = 0.05;
/// LMBench iterations per benchmark.
const ITERS: u32 = 8;
/// Profiling rounds aggregated into the lab's profile.
const ROUNDS: u32 = 2;
/// Macro-benchmark requests (Table 7, robustness).
const REQUESTS: u32 = 6;
/// Profiling runs of the user-space experiment, as `tables` passes.
const USERSPACE_RUNS: u32 = 400;

type TableRun = fn(&Lab) -> Result<Table, ExperimentError>;

/// Every table `tables` regenerates, keyed as its `--only` list names
/// them, in the order it runs them.
const TABLES: [(&str, TableRun); 21] = [
    ("1", |_| Ok(experiments::table1())),
    ("fig1", |_| Ok(experiments::figure1())),
    ("2", |lab| Ok(experiments::table2(lab))),
    ("3", |lab| Ok(experiments::table3(lab))),
    ("4", |lab| Ok(experiments::table4(lab))),
    ("5", |lab| Ok(experiments::table5(lab))),
    ("6", |lab| Ok(experiments::table6(lab))),
    ("8", |lab| Ok(experiments::table8(lab))),
    ("9", |lab| Ok(experiments::table9(lab))),
    ("10", |lab| Ok(experiments::table10(lab))),
    ("11", |lab| Ok(experiments::table11(lab))),
    ("12", |lab| Ok(experiments::table12(lab))),
    ("7", |lab| experiments::table7(lab, REQUESTS)),
    ("convergence", |lab| {
        experiments::profiling_convergence(lab).map(|r| r.0)
    }),
    ("eibrs", |lab| Ok(experiments::eibrs_comparison(lab).0)),
    (
        "userspace",
        |_| Ok(experiments::userspace(USERSPACE_RUNS).0),
    ),
    ("v1", |lab| Ok(experiments::spectre_v1_fencing(lab).0)),
    ("breakdown", |lab| {
        experiments::cycle_breakdown(lab).map(|r| r.0)
    }),
    (
        "refill",
        |lab| Ok(experiments::rsb_refill_comparison(lab).0),
    ),
    ("robustness", |lab| {
        experiments::robustness(lab, REQUESTS).map(|r| r.0)
    }),
    ("crossarch", |lab| Ok(experiments::cross_arch(lab).0)),
];

/// The paper's optimal configuration: lax inlining, all defenses, DCE.
fn lax_all_dce() -> PibeConfig {
    PibeConfig::builder()
        .lax()
        .defenses(DefenseSet::ALL)
        .dce(true)
        .build()
}

/// Images whose outputs are checked: the LTO, full-budget and lax rungs
/// under every defense of Tables 6 and 7, the ICP-only rungs of Table 3
/// and the optimal configuration.
fn checked_configs() -> Vec<PibeConfig> {
    let mut configs = vec![
        PibeConfig::builder().build(),
        PibeConfig::builder().lax().build(),
        PibeConfig::builder()
            .icp(Budget::P99)
            .defenses(DefenseSet::RETPOLINES)
            .build(),
        PibeConfig::builder()
            .icp(Budget::P99_999)
            .defenses(DefenseSet::RETPOLINES)
            .build(),
        lax_all_dce(),
    ];
    for (_, defenses) in defense_sweep() {
        configs.push(PibeConfig::builder().defenses(defenses).build());
        configs.push(
            PibeConfig::builder()
                .icp(Budget::P99)
                .inliner(Budget::P99)
                .defenses(defenses)
                .build(),
        );
        configs.push(PibeConfig::builder().lax().defenses(defenses).build());
    }
    configs
}

/// A lab whose measurements run under `seed`. `Lab::new` profiles and
/// measures its baseline under a fixed simulation seed; the lab's public
/// `seed` is what every table measures with, so the set-up re-measures
/// the LTO baseline under the new seed to keep overheads consistent.
fn seeded_lab(seed: u64) -> Result<Lab, ExperimentError> {
    let mut lab = Lab::new(kernel_spec(SCALE), ITERS, ROUNDS)?;
    lab.seed = seed;
    let _span = pibe_trace::span("lab.baseline");
    lab.lto_latencies = eval::lmbench_latencies(
        &lab.kernel.module,
        &lab.kernel,
        &lab.workload,
        &lab.suite,
        SimConfig::default(),
        seed,
    );
    Ok(lab)
}

/// Runs every table once on `lab`, timing each call. Returns the tables
/// produced; failed or panicking tables are counted in `failed`.
fn regenerate(lab: &Lab, op_ms: &mut Vec<f64>, failed: &mut u64) -> Vec<Table> {
    let mut produced = Vec::with_capacity(TABLES.len());
    for (key, run) in TABLES {
        let t = Instant::now();
        let span = pibe_trace::span(format!("table.{key}"));
        let result = catch_unwind(AssertUnwindSafe(|| run(lab)));
        drop(span);
        op_ms.push(ms(ns_since(t)));
        match result {
            Ok(Ok(table)) => produced.push(table),
            Ok(Err(e)) => {
                *failed += 1;
                eprintln!("table {key} failed: {e}");
            }
            Err(_) => {
                *failed += 1;
                eprintln!("table {key} panicked");
            }
        }
    }
    produced
}

/// Checks every image of [`checked_configs`]: verification, audit, and
/// the executed-ops invariant against the LTO baseline.
fn check_outputs(ctx: &Ctx, lab: &Lab, checks: &mut Checks, stages: &mut StageTotals) {
    let lto_ops = checks::suite_ops(
        &lab.kernel.module,
        &lab.kernel,
        &lab.workload,
        &lab.suite,
        SimConfig::default(),
        lab.seed,
    );
    checks.check(lto_ops.is_ok(), || {
        format!("LTO baseline fails to run: {lto_ops:?}")
    });
    let Ok(lto_ops) = lto_ops else { return };
    for config in checked_configs() {
        let label = format!("{config:?}");
        let image = match catch_unwind(AssertUnwindSafe(|| lab.image(&config))) {
            Ok(image) => image,
            Err(_) => {
                checks.check(false, || format!("{label}: build failed"));
                continue;
            }
        };
        checks::image(checks, &image, ctx.threads, &label);
        checks::ops_match(
            checks,
            &image,
            &lto_ops,
            &lab.kernel,
            &lab.workload,
            &lab.suite,
            lab.seed,
            &label,
        );
        stages.add_counts(&image);
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::new(ctx.trace);
    let mut stages = StageTotals::default();
    let (mut sim_self_ms, mut farm) = (Vec::new(), Vec::new());
    let mut first_hash = None;
    let mut last_lab: Option<Lab> = None;

    let deadline = Deadline::start(ctx.seconds, ctx.min_ops);
    let mut pass = 0;
    while deadline.more(out.op_ms.len()) {
        drop(last_lab.take());
        let mut failed = 0;
        let (result, trace) = layers.pass(pass, || {
            let t = Instant::now();
            let lab = seeded_lab(ctx.seed)?;
            let setup = ns_since(t);
            let t = Instant::now();
            let tables = regenerate(&lab, &mut out.op_ms, &mut failed);
            Ok::<_, ExperimentError>((lab, tables, setup, ns_since(t)))
        });
        out.failed_ops += failed;
        out.attempted += 1 + TABLES.len() as u64;
        let (lab, tables, setup_ns, pass_ns) = match result {
            Ok(r) => r,
            Err(e) => {
                out.failed_ops += 1;
                eprintln!("lab set-up failed: {e}");
                break;
            }
        };
        out.setup_s.push(setup_ns as f64 / 1e9);
        out.pass_s.push(pass_ns as f64 / 1e9);

        // The regenerated tables must not depend on the pass (nor on the
        // process: the digest is compared across worker processes).
        let json = serde_json::to_string(&tables).unwrap_or_default();
        let hash = fnv(FNV_START, json.as_bytes());
        let first = *first_hash.get_or_insert(hash);
        out.checks.check(hash == first, || {
            format!("pass {pass}: tables JSON hash {hash:016x} differs from pass 0's {first:016x}")
        });
        out.digest = first;
        if pass == 0 && ctx.first {
            check_outputs(ctx, &lab, &mut out.checks, &mut stages);
        }
        let stats = lab.farm().stats();
        out.checks.check(stats.failed == 0, || {
            format!("pass {pass}: {} farm builds failed", stats.failed)
        });
        if let Some(trace) = trace {
            farm.push(stats);
            stages.add_metrics(&lab.build_metrics(), stats.builds);
            sim_self_ms.push(ms(self_ns(&trace, "table.", "farm.")));
        }
        last_lab = Some(lab);
        pass += 1;
    }

    out.rss_mb = layers.pass_rss_mb();
    let Some(lab) = last_lab else { return out };
    // Output quality: the LMBench geomean run time of lax inlining with
    // all defenses as a percentage of the LTO baseline's (Table 6's
    // overhead plus 100), and the code size of that configuration with DCE.
    let optimal = catch_unwind(AssertUnwindSafe(|| {
        let measured = PibeConfig {
            dce: false,
            ..lax_all_dce()
        };
        (
            100.0 + lab.run_config(&measured).0,
            lab.image(&lax_all_dce()).size.bytes,
        )
    }));
    match optimal {
        Ok((runtime, bytes)) => {
            out.quality.insert("image_runtime_pct".into(), runtime);
            out.quality.insert("image_kb".into(), bytes as f64 / 1024.0);
        }
        Err(_) => out.checks.check(false, || "optimal image failed".into()),
    }

    if ctx.trace {
        for (key, _) in TABLES {
            layers.set(
                &format!("table.{key}_ms"),
                layers.median_span_ms(&format!("table.{key}")),
            );
        }
        layers.set("sim.self_ms", median(&sim_self_ms));
        layers.set(
            "kernel.generate_ms",
            layers.median_span_ms("lab.kernel_gen"),
        );
        layers.set("sim.profile_ms", layers.median_span_ms("lab.profile"));
        layers.set("farm.build_ms", layers.median_span_ms("farm.build"));
        layers.set(
            "farm.queue_wait_ms",
            layers.hist_mean("farm.queue_wait_us") / 1e3,
        );
        let mean = |f: &dyn Fn(&pibe::FarmStats) -> f64| {
            farm.iter().map(f).sum::<f64>() / farm.len().max(1) as f64
        };
        layers.set("farm.requests", mean(&|s| s.requests as f64));
        layers.set("farm.builds", mean(&|s| s.builds as f64));
        layers.set(
            "farm.hit_ratio",
            mean(&|s| s.hits as f64 / s.requests.max(1) as f64),
        );
        stages.publish(&mut layers);
        let apache = collect_macro_profile(
            &lab.kernel,
            &WorkloadSpec::apache(),
            &MacroBench::apache(REQUESTS),
            1,
            lab.seed,
        )
        .unwrap_or_default();
        probes::run(
            &mut layers,
            &probes::Inputs {
                kernel: &lab.kernel,
                workload: &lab.workload,
                suite: &lab.suite,
                profile: &lab.profile,
                drifted: &apache,
                deltas: std::slice::from_ref(&apache),
                config: lax_all_dce(),
                seed: lab.seed,
                threads: ctx.threads,
            },
        );
    }
    out.layers = layers.finish();
    out
}
