//! `serve-drift`: the continuous-PGO service on the paper-scale kernel,
//! in a closed loop.
//!
//! One operator feeds a `PibeService` seeded `DeltaStream` epochs back to
//! back, each as soon as the last one returns: several shards per epoch,
//! a fixed share of corrupted deltas for the quarantine, and a hot-spot
//! drift every few epochs that forces a rebuild. Clean epochs take the
//! decision-surface fast path; drift epochs rebuild incrementally with a
//! warm harden cache. One pass is one drift period. A change that trades
//! cold-build speed for incremental speed, or the reverse, shows here
//! against `build-matrix`.

use crate::checks::{self, StageTotals};
use crate::layers::Layers;
use crate::probes;
use crate::stats::{median, ms, ns_since, Deadline};
use crate::{kernel_spec, Ctx, Outcome};
use pibe::{DefenseSet, Image, PibeConfig};
use pibe_kernel::measure::collect_profile;
use pibe_kernel::workloads::lmbench_suite;
use pibe_kernel::{Kernel, WorkloadSpec};
use pibe_profile::Profile;
use pibe_serve::{DeltaStream, EpochOutcome, PibeService, ServeConfig, StreamConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// LMBench iterations per benchmark, for profiling and for the run-time
/// measurement.
const ITERS: u32 = 16;
/// Profiling rounds.
const ROUNDS: u32 = 2;
/// The delta stream: four shards, a quarter of the deltas corrupted, a
/// hot-spot drift every fourth epoch.
const STREAM: StreamConfig = StreamConfig {
    shards: 4,
    corrupt_permille: 250,
    drift_every: 4,
    drift_boost: 40_000,
};

/// Hot direct call sites the stream's hot-spot drift rotates through.
const DRIFT_SITES: usize = 16;
/// Their count in the stream's base profile: a multiple of every modulus
/// (2 to 8) the stream thins call-edge counts with, so clean shard reports
/// carry no call-edge weight.
const EDGE_COUNT: u64 = 840;

/// The profile the stream thins into shard reports. Its return counts
/// are the training profile's: returns feed no build decision (entry
/// counts do, through the inliner's weight propagation), so a clean report
/// leaves the decision surface unchanged and takes the fast path. Its call
/// edges are the training profile's hottest direct sites at
/// [`EDGE_COUNT`], which thinning maps to zero, so only the periodic
/// hot-spot boost moves decisions.
fn stream_base(training: &Profile) -> Profile {
    let mut base = Profile::new();
    for (f, count) in training.iter_returns() {
        (0..count).for_each(|_| base.record_return(f));
    }
    let mut hot: Vec<_> = training.iter_direct().collect();
    hot.sort_by_key(|&(site, count)| (std::cmp::Reverse(count), site));
    for (site, _) in hot.into_iter().take(DRIFT_SITES) {
        (0..EDGE_COUNT).for_each(|_| base.record_direct(site));
    }
    base
}

/// The served configuration: the paper's optimal one.
fn config() -> PibeConfig {
    PibeConfig::builder()
        .lax()
        .defenses(DefenseSet::ALL)
        .dce(true)
        .build()
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::new(ctx.trace);
    let serve = ServeConfig {
        watchdog: Duration::from_secs(120),
        max_retries: 1,
        freeze_after: 3,
        backoff: Duration::ZERO,
        threads: ctx.threads,
    };
    let workload = WorkloadSpec::lmbench();
    let suite = lmbench_suite(ITERS);

    // Set-up, once per worker process (the run's `setup_s` is the median
    // over its workers): kernel, training profile, bootstrap build.
    out.attempted += 1;
    let t0 = Instant::now();
    let kernel = Kernel::generate(kernel_spec(1.0));
    let generate_ms = ms(ns_since(t0));
    let t = Instant::now();
    let profile = match collect_profile(&kernel, &workload, &suite, ROUNDS, ctx.seed) {
        Ok(p) => p,
        Err(e) => {
            out.failed_ops += 1;
            eprintln!("profiling failed: {e}");
            return out;
        }
    };
    let profile_ms = ms(ns_since(t));
    let t = Instant::now();
    let mut svc =
        match PibeService::bootstrap(kernel.module.clone(), profile.clone(), config(), serve) {
            Ok(svc) => svc,
            Err(e) => {
                out.failed_ops += 1;
                eprintln!("bootstrap failed: {e}");
                return out;
            }
        };
    let bootstrap_ms = ms(ns_since(t));
    out.setup_s.push(ns_since(t0) as f64 / 1e9);

    let base = stream_base(&profile);
    let mut stream = DeltaStream::new(&kernel.module, &base, STREAM, ctx.seed);
    let (mut fast_ms, mut drift_ms) = (Vec::new(), Vec::new());
    let mut drifted = Vec::new();
    let mut stages = StageTotals::default();
    let mut after_first_pass: Option<(Arc<Image>, Profile)> = None;
    let deadline = Deadline::start(ctx.seconds, ctx.min_ops);
    let mut epoch = 0u64;
    let mut pass = 0;
    while deadline.more(out.op_ms.len()) {
        let traced = layers.traced(pass);
        let (outcomes, _) = layers.pass(pass, || {
            let t = Instant::now();
            let mut outcomes = Vec::with_capacity(STREAM.drift_every as usize);
            for _ in 0..STREAM.drift_every {
                let span = pibe_trace::span("serve.stream");
                let deltas = stream.epoch_deltas(epoch);
                drop(span);
                let t = Instant::now();
                let record = svc.ingest_epoch(deltas);
                let elapsed = ms(ns_since(t));
                out.op_ms.push(elapsed);
                outcomes.push((record.outcome.clone(), record.drifted_functions, elapsed));
                if traced && matches!(record.outcome, EpochOutcome::Rebuilt { .. }) {
                    stages.add_image(svc.image());
                }
                epoch += 1;
            }
            out.pass_s.push(ns_since(t) as f64 / 1e9);
            outcomes
        });
        out.attempted += outcomes.len() as u64;
        for (outcome, drifted_functions, elapsed) in outcomes {
            match outcome {
                EpochOutcome::FastPath => fast_ms.push(elapsed),
                EpochOutcome::Rebuilt { .. } => {
                    drift_ms.push(elapsed);
                    drifted.push(drifted_functions as f64);
                }
                other => {
                    out.failed_ops += 1;
                    eprintln!("epoch ended {other:?}");
                }
            }
        }
        after_first_pass
            .get_or_insert_with(|| (Arc::clone(svc.image()), svc.cumulative_profile().clone()));
        pass += 1;
    }

    // The served image must be exactly what a from-scratch build on the
    // cumulative profile produces, and must pass the image checks.
    let full = Image::builder(&kernel.module)
        .profile(svc.cumulative_profile())
        .config(config())
        .threads(ctx.threads)
        .build();
    match &full {
        Ok(full) => {
            let same = pibe_difftest::bit_identical(&svc.image().module, &full.module);
            out.checks.check(same.is_ok(), || {
                format!("served image differs from a from-scratch build: {same:?}")
            });
        }
        Err(e) => out
            .checks
            .check(false, || format!("from-scratch build failed: {e}")),
    }
    checks::image(&mut out.checks, svc.image(), ctx.threads, "served image");

    // The journal must replay to the live state, and the quarantine must
    // have caught every corrupted delta the stream landed.
    let replay = svc.journal().replay();
    let streamed = stream.stats();
    out.checks.check(replay.state == svc.state(), || {
        format!(
            "journal replays to {:?}, live state {:?}",
            replay.state,
            svc.state()
        )
    });
    out.checks.check(
        replay.fast_paths + replay.rebuilds + replay.rollbacks + replay.frozen_epochs
            == streamed.epochs,
        || {
            format!(
                "journal {replay:?} does not account for {} epochs",
                streamed.epochs
            )
        },
    );
    let invalid = svc.quarantine().iter().filter(|q| q.is_invalid()).count() as u64;
    out.checks.check(invalid >= streamed.corrupted, || {
        format!(
            "{} corrupted deltas but only {invalid} invalid quarantines",
            streamed.corrupted
        )
    });

    out.rss_mb = layers.pass_rss_mb();

    // Output quality: code size of the image served after the first drift
    // period, and the LMBench run time of its decisions without DCE (the
    // simulator needs the kernel's function ids).
    if let Some((image, _)) = &after_first_pass {
        out.digest = image.size.bytes;
        out.quality
            .insert("image_kb".into(), image.size.bytes as f64 / 1024.0);
    }
    if let Some((_, profile)) = after_first_pass.as_ref().filter(|_| ctx.first) {
        let measured = Image::builder(&kernel.module)
            .profile(profile)
            .config(PibeConfig {
                dce: false,
                ..config()
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
        layers.set("kernel.generate_ms", generate_ms);
        layers.set("sim.profile_ms", profile_ms);
        layers.set("serve.bootstrap_ms", bootstrap_ms);
        layers.set("serve.epoch_fast_ms", median(&fast_ms));
        layers.set("serve.epoch_drift_ms", median(&drift_ms));
        layers.set("serve.stream_ms", layers.median_span_ms("serve.stream"));
        let cache = svc.harden_cache_stats();
        layers.set(
            "serve.harden_cache_hit_ratio",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        );
        layers.set("serve.fast_paths", replay.fast_paths as f64);
        layers.set("serve.rebuilds", replay.rebuilds as f64);
        layers.set("serve.rollbacks", replay.rollbacks as f64);
        layers.set("serve.quarantined", replay.quarantined as f64);
        stages.publish(&mut layers);
        let deltas: Vec<Profile> = stream
            .epoch_deltas(epoch)
            .into_iter()
            .map(|d| d.profile)
            .collect();
        probes::run(
            &mut layers,
            &probes::Inputs {
                kernel: &kernel,
                workload: &workload,
                suite: &suite,
                profile: &profile,
                drifted: svc.cumulative_profile(),
                deltas: &deltas,
                config: config(),
                seed: ctx.seed,
                threads: ctx.threads,
            },
        );
        // The epochs' own drift sizes replace the probe's two-profile one.
        layers.set("drift.drifted_functions", median(&drifted));
    }
    out.layers = layers.finish();
    out
}
