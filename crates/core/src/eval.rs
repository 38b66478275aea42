//! Measurement sweeps and overhead arithmetic.

use pibe_ir::{par, Module};
use pibe_kernel::measure::{run_latency, run_throughput};
use pibe_kernel::workloads::{Benchmark, MacroBench, WorkloadSpec};
use pibe_kernel::Kernel;
use pibe_sim::{AttackReport, SimConfig, SimError};
use serde::{Deserialize, Serialize};

/// One LMBench row measured on one image.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyRow {
    /// Benchmark name (Table 2 row).
    pub name: String,
    /// Mean cycles per iteration.
    pub cycles: f64,
    /// Latency analogue in µs.
    pub micros: f64,
}

/// Runs the whole latency `suite` against `module`, one warm simulator per
/// benchmark (as LMBench runs each micro in its own process), in parallel
/// across benchmarks on the bounded worker pool (`PIBE_BUILD_THREADS`
/// wide). Rows come back in suite order whatever the thread count.
///
/// # Panics
/// Panics if the simulator fails, which a well-formed kernel image cannot
/// cause — an error here means the image or workload is malformed. The
/// message names the benchmark and the seed.
pub fn lmbench_latencies(
    module: &Module,
    kernel: &Kernel,
    workload: &WorkloadSpec,
    suite: &[Benchmark],
    cfg: SimConfig,
    seed: u64,
) -> Vec<LatencyRow> {
    par::map_indexed(suite.len(), par::default_threads(), |i| {
        let bench = suite[i];
        let (lat, _, _) = run_latency(module, kernel, workload, bench, cfg, seed)
            .unwrap_or_else(|e| panic!("{}", bench_failure("latency", bench, seed, &e)));
        LatencyRow {
            name: bench.syscall.name().to_string(),
            cycles: lat.cycles_per_iter,
            micros: lat.micros,
        }
    })
}

/// Runs the suite and additionally aggregates the dynamic attack surface
/// across all benchmarks (for the security evaluation). Benchmarks run on
/// the same pool as [`lmbench_latencies`]; their reports merge in suite
/// order.
///
/// # Panics
/// Panics if the simulator fails, naming the benchmark and the seed.
pub fn lmbench_attack_surface(
    module: &Module,
    kernel: &Kernel,
    workload: &WorkloadSpec,
    suite: &[Benchmark],
    cfg: SimConfig,
    seed: u64,
) -> AttackReport {
    let cfg = SimConfig {
        track_attacks: true,
        ..cfg
    };
    let reports = par::map_indexed(suite.len(), par::default_threads(), |i| {
        let bench = suite[i];
        let (_, _, attacks) = run_latency(module, kernel, workload, bench, cfg, seed)
            .unwrap_or_else(|e| panic!("{}", bench_failure("attack-tracked", bench, seed, &e)));
        attacks
    });
    let mut total = AttackReport::default();
    for attacks in &reports {
        total.merge(attacks);
    }
    total
}

/// The panic message of a failed simulated benchmark: what ran, where,
/// under which seed, and why it failed.
fn bench_failure(kind: &str, bench: Benchmark, seed: u64, e: &SimError) -> String {
    format!(
        "{kind} benchmark {} (seed {seed:#x}) must run on a well-formed image: {e}",
        bench.syscall.name()
    )
}

/// Macro throughput of `bench` on `module` (requests/sec analogue).
pub fn macro_throughput(
    module: &Module,
    kernel: &Kernel,
    workload: &WorkloadSpec,
    bench: &MacroBench,
    cfg: SimConfig,
    seed: u64,
) -> f64 {
    let (t, _) = run_throughput(module, kernel, workload, bench, cfg, seed).unwrap_or_else(|e| {
        panic!(
            "macro benchmark {} (seed {seed:#x}) must run on a well-formed image: {e}",
            bench.name
        )
    });
    t.requests_per_sec
}

/// Percent overhead of `new` relative to `base` ("(+) means slowdown while
/// (-) means speedup", Table 2).
pub fn overhead_pct(base: f64, new: f64) -> f64 {
    (new - base) / base * 100.0
}

/// Geometric-mean percent overhead across paired measurements — the
/// summary statistic of Tables 2, 3, 5, and 6.
///
/// # Panics
/// Panics if the slices differ in length, are empty, or contain
/// non-positive measurements.
pub fn geomean_overhead_pct(base: &[f64], new: &[f64]) -> f64 {
    assert_eq!(base.len(), new.len(), "paired measurements required");
    assert!(!base.is_empty(), "at least one measurement required");
    let log_sum: f64 = base
        .iter()
        .zip(new)
        .map(|(b, n)| {
            assert!(*b > 0.0 && *n > 0.0, "measurements must be positive");
            (n / b).ln()
        })
        .sum();
    ((log_sum / base.len() as f64).exp() - 1.0) * 100.0
}

/// Convenience: the `cycles` column of a row set.
pub fn cycles_of(rows: &[LatencyRow]) -> Vec<f64> {
    rows.iter().map(|r| r.cycles).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_kernel::workloads::lmbench_suite;
    use pibe_kernel::KernelSpec;

    #[test]
    fn overhead_signs_match_the_paper_convention() {
        assert_eq!(overhead_pct(100.0, 120.0), 20.0);
        assert_eq!(overhead_pct(100.0, 90.0), -10.0);
    }

    #[test]
    fn geomean_of_identical_runs_is_zero() {
        let xs = vec![10.0, 20.0, 30.0];
        assert!(geomean_overhead_pct(&xs, &xs).abs() < 1e-12);
    }

    #[test]
    fn geomean_is_order_insensitive_and_balanced() {
        // +100% and -50% cancel geometrically.
        let g = geomean_overhead_pct(&[10.0, 10.0], &[20.0, 5.0]);
        assert!(g.abs() < 1e-9, "got {g}");
    }

    #[test]
    #[should_panic(expected = "paired")]
    fn geomean_rejects_mismatched_lengths() {
        geomean_overhead_pct(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn parallel_suite_matches_benchmark_order() {
        let k = Kernel::generate(KernelSpec::test());
        let wl = WorkloadSpec::lmbench();
        let suite = lmbench_suite(4);
        let rows = lmbench_latencies(&k.module, &k, &wl, &suite, SimConfig::default(), 7);
        assert_eq!(rows.len(), 20);
        assert_eq!(rows[0].name, "null");
        assert!(rows.iter().all(|r| r.cycles > 0.0));
        // Deterministic: a second run agrees exactly.
        let rows2 = lmbench_latencies(&k.module, &k, &wl, &suite, SimConfig::default(), 7);
        for (a, b) in rows.iter().zip(&rows2) {
            assert_eq!(a.cycles, b.cycles);
        }
    }

    /// The pooled suite equals `run_latency` called per benchmark in suite
    /// order, and the pooled attack surface equals the suite-order merge.
    #[test]
    fn pooled_suite_equals_sequential_reference() {
        let k = Kernel::generate(KernelSpec::test());
        let wl = WorkloadSpec::lmbench();
        let suite = lmbench_suite(3);
        let cfg = SimConfig {
            defenses: pibe_harden::DefenseSet::RETPOLINES,
            ..SimConfig::default()
        };
        let rows = lmbench_latencies(&k.module, &k, &wl, &suite, cfg, 7);
        assert_eq!(rows.len(), suite.len());
        let tracked = SimConfig {
            track_attacks: true,
            ..cfg
        };
        let mut attacks = AttackReport::default();
        for (row, bench) in rows.iter().zip(&suite) {
            let (lat, _, _) = run_latency(&k.module, &k, &wl, *bench, cfg, 7).unwrap();
            assert_eq!(row.name, bench.syscall.name());
            assert_eq!(row.cycles.to_bits(), lat.cycles_per_iter.to_bits());
            assert_eq!(row.micros.to_bits(), lat.micros.to_bits());
            attacks.merge(
                &run_latency(&k.module, &k, &wl, *bench, tracked, 7)
                    .unwrap()
                    .2,
            );
        }
        assert_eq!(
            lmbench_attack_surface(&k.module, &k, &wl, &suite, cfg, 7),
            attacks
        );
    }

    /// A failure inside a pool worker names the benchmark and the seed.
    #[test]
    #[should_panic(expected = "latency benchmark read (seed 0x7) must run")]
    fn a_failing_benchmark_is_named_in_the_panic() {
        let k = Kernel::generate(KernelSpec::test());
        let wl = WorkloadSpec::lmbench();
        let read = lmbench_suite(3)[1];
        let cfg = SimConfig {
            max_steps: 10,
            ..SimConfig::default()
        };
        lmbench_latencies(&k.module, &k, &wl, &[read, read], cfg, 7);
    }
}
