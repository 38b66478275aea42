//! Golden serve journal: the continuous-PGO service's quarantine and
//! rebuild decisions, pinned against a committed fixture.
//!
//! A `PibeService` on a scale-0.05 kernel ingests 16 epochs of a seeded
//! `DeltaStream` (four shards, a quarter of the deltas corrupted, a
//! hot-spot drift every fourth epoch). The test records the epoch journal,
//! every quarantined delta's reason — the full `ProfileIssue` list in the
//! order validation reported it — and the served image's code size and
//! branch census, and compares the JSON with
//! `tests/golden/serve_journal_test.json` byte for byte. A change that
//! should not move any serve decision — a cheaper validation, a faster
//! drift check — must leave this file untouched.
//!
//! To regenerate the fixture after an intended change of behaviour, run
//! this test with `PIBE_BLESS=1` and review the diff.

use pibe::{DefenseSet, PibeConfig};
use pibe_kernel::measure::collect_profile;
use pibe_kernel::workloads::lmbench_suite;
use pibe_kernel::{Kernel, KernelSpec, WorkloadSpec};
use pibe_serve::{DeltaStream, PibeService, QuarantineReason, ServeConfig, StreamConfig};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::time::Duration;

mod common;

/// Epochs the service ingests.
const EPOCHS: u64 = 16;
/// Seed of the profiling run and of the delta stream.
const SEED: u64 = 0x5E2F_601D;
fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_journal_test.json")
}

/// Runs the service and renders everything the fixture pins.
fn render() -> String {
    let kernel = Kernel::generate(KernelSpec {
        scale: 0.05,
        ..KernelSpec::test()
    });
    let training = collect_profile(
        &kernel,
        &WorkloadSpec::lmbench(),
        &lmbench_suite(8),
        2,
        SEED,
    )
    .expect("profiling succeeds");
    let config = PibeConfig {
        dce: true,
        ..PibeConfig::lax(DefenseSet::ALL)
    };
    let serve = ServeConfig {
        watchdog: Duration::from_secs(600),
        max_retries: 1,
        freeze_after: 3,
        backoff: Duration::ZERO,
        threads: 1,
    };
    let mut svc = PibeService::bootstrap(kernel.module.clone(), training.clone(), config, serve)
        .expect("bootstrap build");

    let base = common::stream_base(&training);
    let mut stream = DeltaStream::new(
        &kernel.module,
        &base,
        StreamConfig {
            shards: 4,
            corrupt_permille: 250,
            drift_every: 4,
            ..StreamConfig::default()
        },
        SEED,
    );
    for epoch in 0..EPOCHS {
        svc.ingest_epoch(stream.epoch_deltas(epoch));
    }

    let quarantine: Vec<Value> = svc
        .quarantine()
        .iter()
        .map(|q| {
            let reason = match &q.reason {
                QuarantineReason::Invalid(issues) => json!({ "invalid": issues }),
                QuarantineReason::Overflow(overflows) => json!({ "overflow": overflows }),
            };
            json!({
                "epoch": q.epoch,
                "shard": q.delta.shard,
                "seq": q.delta.seq,
                "reason": reason,
            })
        })
        .collect();
    let stats = stream.stats();
    let image = &svc.image().module;
    let doc = json!({
        "stream": json!({
            "epochs": stats.epochs,
            "deltas": stats.deltas,
            "corrupted": stats.corrupted,
            "drifts": stats.drifts,
        }),
        "journal": svc.journal(),
        "quarantine": quarantine,
        "image": json!({
            "code_bytes": image.code_bytes(),
            "census": image.census(),
        }),
    });
    let mut text = serde_json::to_string_pretty(&doc).expect("journal serializes");
    text.push('\n');
    text
}

#[test]
fn serve_journal_matches_the_committed_fixture() {
    let rendered = render();
    let path = fixture();
    if std::env::var_os("PIBE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture has a parent"))
            .expect("create fixture dir");
        std::fs::write(&path, &rendered).expect("write fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    if rendered != committed {
        let line = rendered
            .lines()
            .zip(committed.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(committed.lines().count()));
        panic!(
            "serve journal diverged from {} at line {}:\n  got:      {:?}\n  expected: {:?}\n\
             (regenerate with PIBE_BLESS=1 only for an intended change of behaviour)",
            path.display(),
            line + 1,
            rendered.lines().nth(line).unwrap_or(""),
            committed.lines().nth(line).unwrap_or(""),
        );
    }
}
