//! `build-matrix`: cold image builds of the paper-scale kernel, one at a
//! time, with no farm.
//!
//! One pass builds a six-rung configuration ladder from an
//! LMBench-trained profile and again from an Apache-trained one. This
//! measures compile time: validation, the passes, hardening and the IR
//! checks do all the work, and the simulator runs only in the set-up
//! (profile collection). A simulator change should read flat here while
//! a pass change shows.

use crate::checks::{self, StageTotals};
use crate::layers::Layers;
use crate::probes;
use crate::stats::{median, ms, ns_since, Deadline};
use crate::{fnv, kernel_spec, Ctx, Outcome, FNV_START};
use pibe::{Arch, DefenseSet, Image, PibeConfig};
use pibe_kernel::measure::{collect_macro_profile, collect_profile};
use pibe_kernel::workloads::{lmbench_suite, MacroBench};
use pibe_kernel::{Kernel, WorkloadSpec};
use pibe_profile::{Budget, Profile};
use std::time::Instant;

/// LMBench iterations per benchmark, for profiling and for the run-time
/// measurement.
const ITERS: u32 = 16;
/// Profiling rounds.
const ROUNDS: u32 = 2;
/// Apache requests profiled.
const REQUESTS: u32 = 16;

/// The configuration ladder, from a pure-defense build to the paper's
/// optimal configuration on each architecture.
fn ladder() -> [(&'static str, PibeConfig); 6] {
    let optimal = |arch| {
        PibeConfig::builder()
            .lax()
            .defenses(DefenseSet::ALL)
            .dce(true)
            .arch(arch)
            .build()
    };
    [
        (
            "lto-all",
            PibeConfig::builder().defenses(DefenseSet::ALL).build(),
        ),
        (
            "icp99-retpolines",
            PibeConfig::builder()
                .icp(Budget::P99)
                .defenses(DefenseSet::RETPOLINES)
                .build(),
        ),
        (
            "full99-all-dce",
            PibeConfig::builder()
                .icp(Budget::P99)
                .inliner(Budget::P99)
                .defenses(DefenseSet::ALL)
                .dce(true)
                .build(),
        ),
        ("lax-all-dce", optimal(Arch::X86)),
        ("lax-all-dce-arm64", optimal(Arch::Arm64)),
        ("lax-all-dce-riscv64", optimal(Arch::Riscv64)),
    ]
}

/// The inputs the set-up produces, and the time of its steps.
struct Setup {
    kernel: Kernel,
    lmbench: Profile,
    apache: Profile,
    generate_ms: f64,
    profile_ms: Vec<f64>,
}

/// Generates the kernel and collects both training profiles.
fn set_up(ctx: &Ctx) -> Result<Setup, String> {
    let t = Instant::now();
    let kernel = Kernel::generate(kernel_spec(1.0));
    let generate_ms = ms(ns_since(t));
    let t = Instant::now();
    let lmbench = collect_profile(
        &kernel,
        &WorkloadSpec::lmbench(),
        &lmbench_suite(ITERS),
        ROUNDS,
        ctx.seed,
    )
    .map_err(|e| format!("LMBench profiling failed: {e}"))?;
    let mut profile_ms = vec![ms(ns_since(t))];
    let t = Instant::now();
    let apache = collect_macro_profile(
        &kernel,
        &WorkloadSpec::apache(),
        &MacroBench::apache(REQUESTS),
        ROUNDS,
        ctx.seed,
    )
    .map_err(|e| format!("Apache profiling failed: {e}"))?;
    profile_ms.push(ms(ns_since(t)));
    Ok(Setup {
        kernel,
        lmbench,
        apache,
        generate_ms,
        profile_ms,
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::new(ctx.trace);
    // One set-up per worker process: the run's `setup_s` is the median
    // over its workers.
    out.attempted += 1;
    let t = Instant::now();
    let Setup {
        kernel,
        lmbench,
        apache,
        generate_ms,
        profile_ms,
    } = match set_up(ctx) {
        Ok(setup) => setup,
        Err(e) => {
            out.failed_ops += 1;
            eprintln!("set-up failed: {e}");
            return out;
        }
    };
    out.setup_s.push(ns_since(t) as f64 / 1e9);

    let profiles = [("lmbench", &lmbench), ("apache", &apache)];
    let ladder = ladder();
    let mut first_sizes: Vec<Option<u64>> = vec![None; profiles.len() * ladder.len()];
    let mut stages = StageTotals::default();
    let mut optimal: Option<Image> = None;
    let deadline = Deadline::start(ctx.seconds, ctx.min_ops);
    let mut pass = 0;
    while deadline.more(out.op_ms.len()) {
        let (images, _) = layers.pass(pass, || {
            let t = Instant::now();
            let mut images = Vec::with_capacity(first_sizes.len());
            for (_, profile) in profiles {
                for (name, config) in ladder {
                    let t = Instant::now();
                    let span = pibe_trace::span(format!("build.{name}"));
                    let built = Image::builder(&kernel.module)
                        .profile(profile)
                        .config(config)
                        .threads(ctx.threads)
                        .build();
                    drop(span);
                    out.op_ms.push(ms(ns_since(t)));
                    images.push(built);
                }
            }
            out.pass_s.push(ns_since(t) as f64 / 1e9);
            images
        });
        out.attempted += images.len() as u64;
        let traced = layers.traced(pass);
        for (i, built) in images.into_iter().enumerate() {
            let (profile, _) = profiles[i / ladder.len()];
            let (name, _) = ladder[i % ladder.len()];
            let label = format!("{name} ({profile} profile)");
            let image = match built {
                Ok(image) => image,
                Err(e) => {
                    out.failed_ops += 1;
                    eprintln!("{label}: build failed: {e}");
                    continue;
                }
            };
            checks::image(&mut out.checks, &image, ctx.threads, &label);
            let first = *first_sizes[i].get_or_insert(image.size.bytes);
            out.checks.check(image.size.bytes == first, || {
                format!(
                    "{label}: pass {pass} built {} bytes, pass 0 built {first}",
                    image.size.bytes
                )
            });
            if traced {
                stages.add_image(&image);
            }
            if i == 3 {
                optimal = Some(image);
            }
        }
        pass += 1;
    }

    out.rss_mb = layers.pass_rss_mb();
    out.digest = first_sizes.iter().fold(FNV_START, |h, size| {
        fnv(h, &size.unwrap_or(0).to_le_bytes())
    });

    // Output quality: code size of the optimal x86 image, and the LMBench
    // run time of the same configuration without DCE (the simulator needs
    // the kernel's function ids).
    let workload = WorkloadSpec::lmbench();
    let suite = lmbench_suite(ITERS);
    if let Some(image) = &optimal {
        out.quality
            .insert("image_kb".into(), image.size.bytes as f64 / 1024.0);
    }
    if ctx.first {
        let measured = Image::builder(&kernel.module)
            .profile(&lmbench)
            .config(PibeConfig {
                dce: false,
                ..ladder[3].1
            })
            .threads(ctx.threads)
            .build();
        match measured {
            Ok(image) => {
                out.quality.insert(
                    "image_runtime_pct".into(),
                    checks::runtime_pct(&image, &kernel, &workload, &suite, ctx.seed),
                );
            }
            Err(e) => out
                .checks
                .check(false, || format!("lax+all build failed: {e}")),
        }
    }

    if ctx.trace {
        for (name, _) in ladder {
            layers.set(
                &format!("build.{name}_ms"),
                layers.median_span_ms(&format!("build.{name}")),
            );
        }
        layers.set("kernel.generate_ms", generate_ms);
        layers.set("sim.profile_ms", median(&profile_ms));
        stages.publish(&mut layers);
        probes::run(
            &mut layers,
            &probes::Inputs {
                kernel: &kernel,
                workload: &workload,
                suite: &suite,
                profile: &lmbench,
                drifted: &apache,
                deltas: std::slice::from_ref(&apache),
                config: ladder[3].1,
                seed: ctx.seed,
                threads: ctx.threads,
            },
        );
    }
    out.layers = layers.finish();
    out
}
