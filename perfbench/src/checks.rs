//! Output checks on built images, and the per-build pipeline figures read
//! from them.

use crate::layers::Layers;
use crate::stats::{ms, Checks};
use pibe::{eval, BuildMetrics, Image};
use pibe_harden::audit_backend;
use pibe_ir::{Inst, Module};
use pibe_kernel::measure::run_latency;
use pibe_kernel::workloads::{Benchmark, WorkloadSpec};
use pibe_kernel::Kernel;
use pibe_sim::SimConfig;

/// Checks that `image` verifies and audits clean for its defense set: the
/// backend's auditor agrees with the pipeline's own audit record, every
/// non-assembly indirect call is protected when forward edges are
/// defended, and no return is left exposed when backward edges are.
pub fn image(checks: &mut Checks, image: &Image, threads: usize, label: &str) {
    let verified = image.module.verify_threaded(threads);
    checks.check(verified.is_ok(), || {
        format!("{label}: image fails verification: {verified:?}")
    });
    let backend = image.config.backend();
    let defenses = image.config.defenses;
    let audit = audit_backend(&image.module, backend, defenses);
    checks.check(audit.as_ref() == Ok(&image.audit), || {
        format!(
            "{label}: re-audit {audit:?} disagrees with the build's {:?}",
            image.audit
        )
    });
    if backend.hardens_forward(defenses) {
        let asm = asm_icalls(&image.module);
        checks.check(image.audit.vulnerable_icalls == asm, || {
            format!(
                "{label}: {} vulnerable indirect calls, but only {asm} are inline assembly",
                image.audit.vulnerable_icalls
            )
        });
    }
    if backend.hardens_backward(defenses) {
        checks.check(image.audit.vulnerable_returns == 0, || {
            format!(
                "{label}: {} returns left unprotected",
                image.audit.vulnerable_returns
            )
        });
    }
}

/// Inline-assembly indirect calls: the sites no backend can harden.
fn asm_icalls(module: &Module) -> u64 {
    module
        .functions()
        .iter()
        .flat_map(|f| f.insts())
        .filter(|i| matches!(i, Inst::CallIndirect { asm: true, .. }))
        .count() as u64
}

/// Executed compute ops of every benchmark of `suite` on `module`, or the
/// simulator's error. Promotion and inlining preserve these counts
/// exactly, so an optimized image must match the LTO baseline's.
pub fn suite_ops(
    module: &Module,
    kernel: &Kernel,
    workload: &WorkloadSpec,
    suite: &[Benchmark],
    cfg: SimConfig,
    seed: u64,
) -> Result<Vec<u64>, String> {
    suite
        .iter()
        .map(|b| {
            run_latency(module, kernel, workload, *b, cfg, seed)
                .map(|(_, stats, _)| stats.ops)
                .map_err(|e| format!("{}: {e}", b.syscall.name()))
        })
        .collect()
}

/// The simulator configuration that measures `image`: its own defenses
/// and architecture.
fn sim_config(image: &Image) -> SimConfig {
    SimConfig {
        defenses: image.config.defenses,
        arch: image.config.arch,
        ..SimConfig::default()
    }
}

/// Geometric-mean LMBench run time of `image` as a percentage of the
/// unmodified kernel's: 100 plus the overhead the paper's tables report.
/// The image must keep the kernel's function ids (no DCE), as the
/// workload resolver names them.
pub fn runtime_pct(
    image: &Image,
    kernel: &Kernel,
    workload: &WorkloadSpec,
    suite: &[Benchmark],
    seed: u64,
) -> f64 {
    let lto = eval::lmbench_latencies(
        &kernel.module,
        kernel,
        workload,
        suite,
        SimConfig::default(),
        seed,
    );
    let rows = eval::lmbench_latencies(
        &image.module,
        kernel,
        workload,
        suite,
        sim_config(image),
        seed,
    );
    100.0 + eval::geomean_overhead_pct(&eval::cycles_of(&lto), &eval::cycles_of(&rows))
}

/// Checks that every benchmark executes exactly the LTO baseline's compute
/// ops on `image`, run under the image's own defenses and architecture.
/// DCE renumbers functions, so only images that keep the kernel's ids can
/// be run against its workload resolver.
#[allow(clippy::too_many_arguments)]
pub fn ops_match(
    checks: &mut Checks,
    image: &Image,
    lto_ops: &[u64],
    kernel: &Kernel,
    workload: &WorkloadSpec,
    suite: &[Benchmark],
    seed: u64,
    label: &str,
) {
    if image.config.dce {
        return;
    }
    let ops = suite_ops(
        &image.module,
        kernel,
        workload,
        suite,
        sim_config(image),
        seed,
    );
    checks.check(ops.as_deref() == Ok(lto_ops), || {
        format!("{label}: executed ops {ops:?} differ from the LTO baseline's {lto_ops:?}")
    });
}

/// Per-build pipeline figures, summed over the builds a traced pass made.
#[derive(Debug, Default)]
pub struct StageTotals {
    metrics: BuildMetrics,
    builds: u64,
    icp_promoted: u64,
    inlined: u64,
    dce_removed: u64,
    harden_sites: u64,
    /// Builds whose per-image counters were read (a farm's aggregate
    /// metrics carry timings but no pass statistics).
    counted: u64,
}

impl StageTotals {
    /// Adds one built image: its stage timings and its pass counters.
    pub fn add_image(&mut self, image: &Image) {
        self.add_metrics(&image.metrics, 1);
        self.add_counts(image);
    }

    /// Adds stage timings summed over `builds` builds.
    pub fn add_metrics(&mut self, metrics: &BuildMetrics, builds: u64) {
        self.metrics.accumulate(metrics);
        self.builds += builds;
    }

    /// Adds one image's pass counters without its timings.
    pub fn add_counts(&mut self, image: &Image) {
        self.counted += 1;
        self.icp_promoted += image.icp_stats.as_ref().map_or(0, |s| s.promoted_targets);
        self.inlined += image.inline_stats.as_ref().map_or(0, |s| s.inlined_sites);
        self.dce_removed += image.dce_stats.as_ref().map_or(0, |s| s.removed_functions);
        self.harden_sites += image.audit.protected_icalls
            + image.audit.protected_returns
            + image.audit.protected_ijumps
            + image.harden_report.jump_tables_disabled;
    }

    /// Writes the mean per-build stage times, the mean per-build pass
    /// counters and the total rollbacks.
    pub fn publish(&self, layers: &mut Layers) {
        let per_build = |ns: u64| {
            if self.builds == 0 {
                0.0
            } else {
                ms(ns) / self.builds as f64
            }
        };
        for (stage, ns) in self.metrics.stages() {
            layers.set(&format!("stage.{stage}_ms"), per_build(ns));
        }
        layers.set("pipeline.rollbacks", self.metrics.rollbacks as f64);
        let per_image = |n: u64| {
            if self.counted == 0 {
                0.0
            } else {
                n as f64 / self.counted as f64
            }
        };
        layers.set("icp.promoted", per_image(self.icp_promoted));
        layers.set("inline.inlined", per_image(self.inlined));
        layers.set("dce.removed", per_image(self.dce_removed));
        layers.set("harden.sites", per_image(self.harden_sites));
    }
}
