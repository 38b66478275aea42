//! Bit-identity of the CoW + parallel pipeline.
//!
//! The copy-on-write module storage and the threaded per-function stages
//! (harden, DCE liveness, verify) are pure performance work: a build at any
//! thread count must produce *exactly* the image a sequential build
//! produces — byte-identical printed modules and equal pass statistics.
//! These tests pin that contract on three populations: a generated kernel,
//! the committed difftest corpus fixtures, and a seeded difftest window.

use pibe::experiments::Lab;
use pibe::{Image, PibeConfig};
use pibe_difftest::{fixture, gen_case, oracle_config, profile_case, GenConfig};
use pibe_harden::DefenseSet;
use pibe_ir::Module;
use pibe_profile::{Budget, Profile};
use std::fs;
use std::path::PathBuf;

/// Thread counts the parallel merge must be invariant over (1 is the
/// sequential reference itself; 7 is deliberately not a power of two).
const THREADS: [usize; 3] = [2, 4, 7];

/// Builds `config` over (`module`, `profile`) at `threads` stage threads.
fn build(module: &Module, profile: &Profile, config: PibeConfig, threads: usize) -> Image {
    Image::builder(module)
        .profile(profile)
        .config(config)
        .threads(threads)
        .build()
        .unwrap_or_else(|e| panic!("build at {threads} threads failed: {e}"))
}

/// Asserts a parallel build equals the sequential reference: the printed
/// module byte-for-byte, and every pass statistic the image carries.
fn assert_bit_identical(reference: &Image, parallel: &Image, what: &str) {
    assert_eq!(
        reference.module.to_string(),
        parallel.module.to_string(),
        "{what}: printed modules differ"
    );
    assert_eq!(
        reference.icp_stats, parallel.icp_stats,
        "{what}: ICP stats differ"
    );
    assert_eq!(
        reference.inline_stats, parallel.inline_stats,
        "{what}: inliner stats differ"
    );
    assert_eq!(
        reference.dce_stats, parallel.dce_stats,
        "{what}: DCE stats differ"
    );
    assert_eq!(
        reference.harden_report, parallel.harden_report,
        "{what}: harden report differs"
    );
    assert_eq!(reference.audit, parallel.audit, "{what}: audit differs");
    assert_eq!(reference.size, parallel.size, "{what}: image size differs");
}

/// Configurations spanning every stage combination the pipeline offers.
fn config_sweep() -> Vec<(&'static str, PibeConfig)> {
    vec![
        ("lto+all", PibeConfig::lto_with(DefenseSet::ALL)),
        (
            "icp99+retpolines",
            PibeConfig::icp_only(Budget::P99, DefenseSet::RETPOLINES),
        ),
        (
            "full99+all+dce",
            PibeConfig {
                dce: true,
                ..PibeConfig::full(Budget::P99, DefenseSet::ALL)
            },
        ),
        (
            "lax+all+dce",
            PibeConfig {
                dce: true,
                ..PibeConfig::lax(DefenseSet::ALL)
            },
        ),
    ]
}

#[test]
fn kernel_builds_are_bit_identical_across_thread_counts() {
    let lab = Lab::test();
    for (name, config) in config_sweep() {
        let reference = build(&lab.kernel.module, &lab.profile, config, 1);
        for threads in THREADS {
            let parallel = build(&lab.kernel.module, &lab.profile, config, threads);
            assert_bit_identical(
                &reference,
                &parallel,
                &format!("kernel/{name} at {threads} threads"),
            );
        }
    }
}

#[test]
fn corpus_fixtures_build_bit_identically_in_parallel() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut entries: Vec<_> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing corpus dir {}: {e}", dir.display()))
        .map(|e| e.expect("readable corpus dir").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pibecase"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 3, "corpus unexpectedly small");
    for path in entries {
        let text = fs::read_to_string(&path).expect("readable fixture");
        let case = fixture::from_text(&text)
            .unwrap_or_else(|e| panic!("{} is malformed: {e}", path.display()));
        let profile = profile_case(&case);
        let reference = build(&case.module, &profile, oracle_config(), 1);
        for threads in THREADS {
            let parallel = build(&case.module, &profile, oracle_config(), threads);
            assert_bit_identical(
                &reference,
                &parallel,
                &format!("{} at {threads} threads", path.display()),
            );
        }
    }
}

#[test]
fn seeded_difftest_window_builds_bit_identically() {
    let cfg = GenConfig::default();
    for seed in 0..8u64 {
        let case = gen_case(seed, &cfg);
        let profile = profile_case(&case);
        let reference = build(&case.module, &profile, oracle_config(), 1);
        for threads in THREADS {
            let parallel = build(&case.module, &profile, oracle_config(), threads);
            assert_bit_identical(
                &reference,
                &parallel,
                &format!("seed {seed} at {threads} threads"),
            );
        }
    }
}
