//! End-to-end pipeline invariants across crates: the transformations must
//! preserve program semantics, keep the IR valid, and stay deterministic.

use pibe::{FailurePolicy, Image, ModuleCorruption, PibeConfig, PipelineError, Stage};
use pibe_harden::DefenseSet;
use pibe_kernel::measure::{collect_profile, run_latency};
use pibe_kernel::workloads::{lmbench_suite, Benchmark, WorkloadSpec};
use pibe_kernel::{Kernel, KernelSpec, Syscall};
use pibe_profile::{Budget, Profile};
use pibe_sim::SimConfig;

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

/// Inlining and promotion may not change *what* the program computes: the
/// number of executed compute ops under an identical seeded workload must
/// be bit-for-bit identical before and after every optimization level.
#[test]
fn transformations_preserve_executed_ops() {
    let (kernel, profile) = lab();
    let workload = WorkloadSpec::lmbench();
    let bench = Benchmark {
        syscall: Syscall::Open,
        iterations: 30,
        warmup: 0,
    };
    let ops_of = |module: &pibe_ir::Module| {
        let (_, stats, _) =
            run_latency(module, &kernel, &workload, bench, SimConfig::default(), 99)
                .expect("run succeeds");
        stats.ops
    };
    let base_ops = ops_of(&kernel.module);
    assert!(base_ops > 0);
    for config in [
        PibeConfig::icp_only(Budget::P99_9, DefenseSet::NONE),
        PibeConfig::full(Budget::P99_9, DefenseSet::NONE),
        PibeConfig::lax(DefenseSet::NONE),
        PibeConfig::lax(DefenseSet::ALL),
    ] {
        let image = Image::builder(&kernel.module)
            .profile(&profile)
            .config(config)
            .build()
            .expect("pipeline preserves validity");
        assert_eq!(
            ops_of(&image.module),
            base_ops,
            "executed compute ops changed under {config:?}"
        );
    }
}

/// Same seed, same spec → identical images and identical measurements.
#[test]
fn pipeline_is_deterministic_end_to_end() {
    let run = || {
        let (kernel, profile) = lab();
        let image = Image::builder(&kernel.module)
            .profile(&profile)
            .config(PibeConfig::lax(DefenseSet::ALL))
            .build()
            .expect("pipeline preserves validity");
        let bench = Benchmark {
            syscall: Syscall::Tcp,
            iterations: 10,
            warmup: 2,
        };
        let (lat, stats, _) = run_latency(
            &image.module,
            &kernel,
            &WorkloadSpec::lmbench(),
            bench,
            SimConfig {
                defenses: DefenseSet::ALL,
                ..SimConfig::default()
            },
            7,
        )
        .expect("run succeeds");
        (
            image.module.code_bytes(),
            image.module.len(),
            lat.cycles_per_iter.to_bits(),
            stats.insts,
        )
    };
    assert_eq!(run(), run());
}

/// Every image the pipeline can produce verifies structurally.
#[test]
fn all_paper_configs_produce_valid_images() {
    let (kernel, profile) = lab();
    let all = DefenseSet::ALL;
    let configs = [
        PibeConfig::lto(),
        PibeConfig::lto_with(all),
        PibeConfig::icp_only(Budget::P99, DefenseSet::RETPOLINES),
        PibeConfig::icp_only(Budget::P99_999, DefenseSet::RETPOLINES),
        PibeConfig::full(Budget::P99, all),
        PibeConfig::full(Budget::P99_9, all),
        PibeConfig::full(Budget::P99_9999, all),
        PibeConfig::lax(all),
        PibeConfig::pibe_baseline(),
    ];
    for config in configs {
        let image = Image::builder(&kernel.module)
            .profile(&profile)
            .config(config)
            .build()
            .expect("pipeline preserves validity");
        image
            .module
            .verify()
            .unwrap_or_else(|e| panic!("invalid image under {config:?}: {e}"));
    }
}

/// Higher budgets elide at least as much and grow the image at least as
/// much (Table 8 / Table 12 monotonicity).
#[test]
fn budget_monotonicity() {
    let (kernel, profile) = lab();
    let mut prev_inlined = 0;
    let mut prev_bytes = 0;
    for budget in [Budget::P99, Budget::P99_9, Budget::P99_9999] {
        let image = Image::builder(&kernel.module)
            .profile(&profile)
            .config(PibeConfig::full(budget, DefenseSet::ALL))
            .build()
            .expect("pipeline preserves validity");
        let inl = image.inline_stats.expect("inliner ran");
        assert!(
            inl.inlined_sites >= prev_inlined,
            "inlined sites decreased at {budget}"
        );
        assert!(
            image.module.code_bytes() >= prev_bytes,
            "image shrank at {budget}"
        );
        prev_inlined = inl.inlined_sites;
        prev_bytes = image.module.code_bytes();
    }
}

/// The profile must survive a serialization round trip and still drive the
/// pipeline to the identical image (the artifact stores profiles on disk
/// between the profiling and optimization runs).
#[test]
fn profile_roundtrip_reproduces_the_image() {
    let (kernel, profile) = lab();
    let json = profile.to_json();
    let reloaded = Profile::from_json(&json).expect("profile parses back");
    assert_eq!(profile, reloaded);
    let build = |p: &Profile| {
        Image::builder(&kernel.module)
            .profile(p)
            .config(PibeConfig::lax(DefenseSet::ALL))
            .build()
            .expect("pipeline preserves validity")
    };
    let a = build(&profile);
    let b = build(&reloaded);
    assert_eq!(a.module.code_bytes(), b.module.code_bytes());
    assert_eq!(a.inline_stats, b.inline_stats);
    assert_eq!(a.icp_stats, b.icp_stats);
}

/// A stage rolled back under `SkipStage` leaves exactly the image the same
/// configuration builds with that stage switched off: the module, the
/// defense and audit reports, the size and every other stage's statistics.
/// Under the default `Abort` the same fault fails the build naming the
/// stage.
#[test]
fn a_rolled_back_stage_builds_the_image_without_that_stage() {
    let (kernel, profile) = lab();
    let cfg = PibeConfig {
        dce: true,
        ..PibeConfig::lax(DefenseSet::ALL)
    };
    let build = |config: PibeConfig, fault: Option<Stage>| {
        let builder = Image::builder(&kernel.module)
            .profile(&profile)
            .config(config);
        match fault {
            Some(stage) => builder.inject_fault(stage, ModuleCorruption::DanglingBlock, 3),
            None => builder,
        }
        .build()
    };
    for (stage, without) in [
        (Stage::Icp, PibeConfig { icp: None, ..cfg }),
        (
            Stage::Inline,
            PibeConfig {
                inliner: None,
                ..cfg
            },
        ),
        (Stage::Dce, PibeConfig { dce: false, ..cfg }),
    ] {
        let skipped = build(
            PibeConfig {
                failure: FailurePolicy::SkipStage,
                ..cfg
            },
            Some(stage),
        )
        .unwrap_or_else(|e| panic!("{stage}: SkipStage must survive the fault: {e}"));
        let reference = build(without, None).expect("reference build succeeds");
        assert!(skipped.faults.contains(stage), "{stage}: fault not logged");
        assert_eq!(skipped.metrics.rollbacks, 1, "{stage}");
        assert_eq!(
            skipped.module.to_string(),
            reference.module.to_string(),
            "{stage}: rolled-back image differs from the stage-less build"
        );
        assert_eq!(skipped.harden_report, reference.harden_report, "{stage}");
        assert_eq!(skipped.audit, reference.audit, "{stage}");
        assert_eq!(skipped.size, reference.size, "{stage}");
        assert_eq!(skipped.icp_stats, reference.icp_stats, "{stage}");
        assert_eq!(skipped.inline_stats, reference.inline_stats, "{stage}");
        assert_eq!(skipped.dce_stats, reference.dce_stats, "{stage}");

        match build(cfg, Some(stage)) {
            Err(PipelineError::StageFailed { stage: failed, .. }) => {
                assert_eq!(failed, stage, "Abort names the wrong stage")
            }
            Err(other) => panic!("{stage}: wanted StageFailed, got {other}"),
            Ok(_) => panic!("{stage}: Abort must fail the build"),
        }
    }
}
