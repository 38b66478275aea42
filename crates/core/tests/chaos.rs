//! Chaos acceptance suite: hundreds of deterministic, seeded corruptions
//! thrown at the hardening pipeline.
//!
//! The contract under test (see DESIGN.md, "Failure model"):
//!
//! * **Repair + SkipStage** (the lenient end): the pipeline never panics
//!   and always yields a verifier-clean image whose security audit shows
//!   every remaining non-asm indirect branch defended — corruption may
//!   degrade *optimization*, never *protection*.
//! * **Strict + Abort** (the strict end): every corruption is refused with
//!   a typed [`PipelineError`] naming the faulty entity.
//! * A farm batch containing one panicking configuration still completes
//!   every other configuration in the batch.

use pibe::{corrupt_module, Image};
use pibe::{
    FailurePolicy, ImageFarm, ModuleCorruption, PibeConfig, PipelineError, Stage, ValidationPolicy,
};
use pibe_harden::DefenseSet;
use pibe_ir::{Inst, Module};
use pibe_kernel::{
    measure::collect_profile,
    workloads::{lmbench_suite, WorkloadSpec},
    Kernel, KernelSpec,
};
use pibe_profile::{corrupt_profile, Profile, ProfileChaos};
use std::sync::OnceLock;

/// Base offset applied to every seed window, so CI can sweep disjoint
/// seed ranges (`PIBE_CHAOS_SEED_BASE=1000 cargo test -p pibe --test
/// chaos`) without touching the code. Defaults to 0; every run is still
/// fully deterministic for a given base.
fn seed_base() -> u64 {
    std::env::var("PIBE_CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// One profiled test kernel shared by every test in the suite.
fn fixture() -> &'static (Module, Profile) {
    static FIX: OnceLock<(Module, Profile)> = OnceLock::new();
    FIX.get_or_init(|| {
        let k = Kernel::generate(KernelSpec::test());
        let p = collect_profile(&k, &WorkloadSpec::lmbench(), &lmbench_suite(6), 2, 7)
            .expect("profiling the pristine kernel succeeds");
        (k.module, p)
    })
}

/// Indirect call sites the defenses can never cover (inline assembly).
fn asm_icalls(module: &Module) -> u64 {
    module
        .functions()
        .iter()
        .flat_map(|f| f.insts())
        .filter(|i| matches!(i, Inst::CallIndirect { asm: true, .. }))
        .count() as u64
}

/// Asserts the image is verifier-clean with every non-asm indirect branch
/// defended: asm sites are the *only* vulnerable icalls, no return is
/// vulnerable, and no extra jump table survived relative to the clean
/// reference build.
fn assert_fully_defended(img: &Image, reference: &Image, context: &str) {
    img.module
        .verify()
        .unwrap_or_else(|e| panic!("{context}: image must verify: {e}"));
    assert_eq!(
        img.audit.vulnerable_icalls,
        asm_icalls(&img.module),
        "{context}: every non-asm indirect call must be defended"
    );
    assert_eq!(
        img.audit.vulnerable_returns, 0,
        "{context}: every return must be defended"
    );
    assert_eq!(
        img.audit.vulnerable_ijumps, reference.audit.vulnerable_ijumps,
        "{context}: only the asm jump tables may survive"
    );
}

#[test]
fn repair_skipstage_survives_hundreds_of_profile_corruptions() {
    let (module, profile) = fixture();
    let cfg = PibeConfig {
        failure: FailurePolicy::SkipStage,
        ..PibeConfig::lax(DefenseSet::ALL)
    };
    let reference = Image::builder(module)
        .profile(profile)
        .config(cfg)
        .build()
        .expect("clean profile builds");
    assert!(reference.repair.is_none() && reference.faults.is_empty());

    let base = seed_base();
    let mut landed_seeds = 0;
    for seed in base..base + 260 {
        let (bad, kind, landed) = corrupt_profile(profile, module, seed);
        if !landed {
            continue;
        }
        landed_seeds += 1;
        let img = Image::builder(module)
            .profile(&bad)
            .config(cfg)
            .build()
            .unwrap_or_else(|e| panic!("seed {seed} ({kind}): lenient build must succeed: {e}"));
        assert_fully_defended(&img, &reference, &format!("seed {seed} ({kind})"));
        // Erase leaves a (validly) empty profile; every other corruption
        // is something repair acted on and must report.
        if kind != ProfileChaos::Erase {
            let repair = img
                .repair
                .unwrap_or_else(|| panic!("seed {seed} ({kind}): repair report expected"));
            assert!(repair.changed(), "seed {seed} ({kind}): repair acted");
        }
    }
    assert!(
        landed_seeds >= 200,
        "the suite must land at least 200 profile corruptions: {landed_seeds}"
    );
}

#[test]
fn strict_abort_rejects_every_profile_corruption_with_a_typed_error() {
    let (module, profile) = fixture();
    let cfg = PibeConfig {
        validation: ValidationPolicy::Strict,
        ..PibeConfig::lax(DefenseSet::ALL)
    };
    let base = seed_base();
    let mut landed_seeds = 0;
    for seed in base..base + 260 {
        let (bad, kind, landed) = corrupt_profile(profile, module, seed);
        if !landed {
            continue;
        }
        landed_seeds += 1;
        let err = match Image::builder(module).profile(&bad).config(cfg).build() {
            Ok(_) => panic!("seed {seed} ({kind}): strict build must fail"),
            Err(e) => e,
        };
        let PipelineError::ProfileInvalid(issue) = &err else {
            panic!("seed {seed} ({kind}): wanted ProfileInvalid, got {err}");
        };
        // The error names the faulty entity (site, function, or the empty
        // profile itself).
        let msg = issue.to_string();
        assert!(
            !msg.is_empty(),
            "seed {seed} ({kind}): issue must describe the fault"
        );
    }
    assert!(
        landed_seeds >= 200,
        "the suite must land at least 200 profile corruptions: {landed_seeds}"
    );
}

#[test]
fn corrupt_base_modules_are_rejected_before_any_pass_runs() {
    let (module, profile) = fixture();
    let base = seed_base();
    let mut landed_seeds = 0;
    for seed in base..base + 80 {
        let (bad, kind, landed) = corrupt_module(module, seed);
        if !landed {
            continue;
        }
        landed_seeds += 1;
        for cfg in [
            PibeConfig::lax(DefenseSet::ALL),
            PibeConfig {
                validation: ValidationPolicy::Strict,
                failure: FailurePolicy::SkipStage,
                ..PibeConfig::lax(DefenseSet::ALL)
            },
        ] {
            let err = match Image::builder(&bad).profile(profile).config(cfg).build() {
                Ok(_) => panic!("seed {seed} ({kind}): corrupt base must be rejected"),
                Err(e) => e,
            };
            assert!(
                matches!(err, PipelineError::InvalidModule(_)),
                "seed {seed} ({kind}): wanted InvalidModule, got {err}"
            );
            assert!(!err.to_string().is_empty());
        }
    }
    assert!(
        landed_seeds >= 60,
        "the suite must land at least 60 module corruptions: {landed_seeds}"
    );
}

#[test]
fn injected_optimization_faults_skip_or_abort_by_policy() {
    let (module, profile) = fixture();
    let reference = Image::builder(module)
        .profile(profile)
        .config(PibeConfig::lax(DefenseSet::ALL))
        .build()
        .expect("clean build");

    let base = seed_base();
    let mut landed_seeds = 0;
    for seed in base..base + 24 {
        let stage = [Stage::Icp, Stage::Inline][(seed % 2) as usize];
        let fault = ModuleCorruption::from_seed(seed);

        // Lenient: the stage rolls back and the build completes defended.
        let img = Image::builder(module)
            .profile(profile)
            .config(PibeConfig {
                failure: FailurePolicy::SkipStage,
                ..PibeConfig::lax(DefenseSet::ALL)
            })
            .inject_fault(stage, fault, seed)
            .build()
            .unwrap_or_else(|e| panic!("seed {seed} ({stage}/{fault}): skip must build: {e}"));
        if img.faults.is_empty() {
            // The corruption found nothing to corrupt at this stage.
            continue;
        }
        landed_seeds += 1;
        assert!(img.faults.contains(stage), "seed {seed}: fault on record");
        assert!(img.metrics.rollbacks >= 1);
        assert_fully_defended(&img, &reference, &format!("seed {seed} ({stage}/{fault})"));

        // Strict: the same fault is a typed abort naming the stage.
        let err = Image::builder(module)
            .profile(profile)
            .config(PibeConfig::lax(DefenseSet::ALL))
            .inject_fault(stage, fault, seed)
            .build()
            .expect_err("abort policy must surface the fault");
        match err {
            PipelineError::StageFailed { stage: s, .. } => assert_eq!(s, stage),
            other => panic!("seed {seed}: wanted StageFailed, got {other}"),
        }
    }
    assert!(
        landed_seeds >= 12,
        "most injected faults must land: {landed_seeds}/24"
    );
}

#[test]
fn hardening_faults_always_abort_even_under_skipstage() {
    let (module, profile) = fixture();
    let base = seed_base();
    for seed in base + 100..base + 108 {
        // DanglingBlock always lands (every function has blocks).
        for failure in [FailurePolicy::Abort, FailurePolicy::SkipStage] {
            let err = Image::builder(module)
                .profile(profile)
                .config(PibeConfig {
                    failure,
                    ..PibeConfig::lax(DefenseSet::ALL)
                })
                .inject_fault(Stage::Harden, ModuleCorruption::DanglingBlock, seed)
                .build()
                .expect_err("a hardening fault must abort under every policy");
            match err {
                PipelineError::StageFailed { stage, .. } => assert_eq!(stage, Stage::Harden),
                other => panic!("seed {seed}: wanted StageFailed(harden), got {other}"),
            }
        }
    }
}

#[test]
fn farm_batch_with_one_panicking_config_completes_every_other() {
    let (module, profile) = fixture();
    // Plant the panic route: a dangling value-profile target as the
    // hottest promotion candidate, consumed with validation off.
    let base = seed_base();
    let poisoned_profile = (base..base + 200)
        .find_map(|seed| {
            let (bad, kind, landed) = corrupt_profile(profile, module, seed);
            (landed && kind == ProfileChaos::DanglingTarget).then_some(bad)
        })
        .expect("some seed plants a dangling target");
    let farm = ImageFarm::new(module.clone(), poisoned_profile).with_threads(3);

    let poisoned = PibeConfig {
        validation: ValidationPolicy::TrustProfile,
        ..PibeConfig::lax(DefenseSet::ALL)
    };
    let healthy = [
        PibeConfig::lto(),
        PibeConfig::lto_with(DefenseSet::ALL),
        PibeConfig::lax(DefenseSet::ALL),
        PibeConfig::lax(DefenseSet::RETPOLINES),
    ];
    let mut batch = healthy.to_vec();
    batch.insert(2, poisoned);

    let err = farm.images(&batch).expect_err("poisoned config fails");
    assert!(
        matches!(err, PipelineError::StagePanicked { .. }),
        "wanted a contained panic, got {err}"
    );

    // Every healthy configuration was built despite the panic and is now a
    // cache hit; the panic is cached as a failure, not retried.
    let builds = farm.stats().builds;
    for cfg in &healthy {
        let img = farm.image(cfg).expect("healthy config completed");
        img.module.verify().expect("healthy image verifies");
    }
    assert_eq!(farm.stats().builds, builds, "no rebuilds");
    assert_eq!(farm.stats().failed, 1, "exactly the poisoned config failed");
    assert!(farm.image(&poisoned).is_err(), "failure stays cached");
    assert_eq!(farm.stats().builds, builds);
}
