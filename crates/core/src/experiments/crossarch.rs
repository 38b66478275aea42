//! The cross-architecture question the backend API exists to answer: how
//! much of PIBE's win survives when the residual defense is cheap hardware
//! CFI (ARM PAC/BTI, RISC-V Zicfilp/Zicfiss) instead of the x86 retpoline
//! family?
//!
//! One invocation builds the same optimization ladder — no optimization,
//! then PIBE at rising profile budgets — once per backend and measures
//! every image against the single shared LTO baseline (the undefended,
//! unoptimized kernel is architecture-independent in the model, so the
//! columns are directly comparable). The table reads as overhead-vs-budget
//! curves, one column per architecture.

use super::Lab;
use crate::config::PibeConfig;
use crate::report::{pct, Table};
use pibe_harden::{Arch, DefenseSet};
use pibe_passes::PassStats;
use pibe_profile::Budget;
use serde::{Deserialize, Serialize};

/// One measured cell of the overhead-vs-budget surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossArchPoint {
    /// The optimization rung ("lto+defenses", "pibe@99", ...).
    pub rung: String,
    /// Architecture name (`x86_64`, `arm64`, `riscv64`, `riscv64-nop`).
    pub arch: String,
    /// Geomean LMBench overhead vs the shared LTO baseline.
    pub overhead_pct: f64,
    /// Dynamic defense cycles the optimization passes elided under this
    /// backend's cost model (the budget logic's figure of merit; zero on
    /// the unoptimized rung).
    pub cycles_elided: u64,
}

/// The architectures one `cross_arch` invocation sweeps: the three
/// evaluated backends plus the RISC-V NOP-on-unsupported deployment
/// variant (same bytes, zero enforcement, zero cycle cost).
pub fn arch_columns() -> [Arch; 4] {
    [Arch::X86, Arch::Arm64, Arch::Riscv64, Arch::Riscv64Nop]
}

/// The optimization ladder each architecture climbs, from unoptimized
/// comprehensive defenses to the paper's lax configuration.
fn budget_ladder() -> [(&'static str, PibeConfig); 5] {
    let d = DefenseSet::ALL;
    [
        ("lto+defenses", PibeConfig::builder().defenses(d).build()),
        (
            "pibe@99",
            PibeConfig::builder()
                .icp(Budget::P99)
                .inliner(Budget::P99)
                .defenses(d)
                .build(),
        ),
        (
            "pibe@99.9",
            PibeConfig::builder()
                .icp(Budget::P99_9)
                .inliner(Budget::P99_9)
                .defenses(d)
                .build(),
        ),
        (
            "pibe@99.999",
            PibeConfig::builder()
                .icp(Budget::P99_999)
                .inliner(Budget::P99_999)
                .defenses(d)
                .build(),
        ),
        ("pibe-lax", PibeConfig::builder().lax().defenses(d).build()),
    ]
}

/// Overhead-vs-budget curves for every backend from one invocation: rows
/// are optimization rungs, columns are architectures, cells are geomean
/// LMBench overhead (%) under `DefenseSet::ALL` vs the shared LTO
/// baseline.
pub fn cross_arch(lab: &Lab) -> (Table, Vec<CrossArchPoint>) {
    let arches = arch_columns();
    let ladder = budget_ladder();

    let mut headers: Vec<&str> = vec!["configuration"];
    headers.extend(arches.iter().map(|a| a.name()));
    let mut table = Table::new(
        "Cross-arch: comprehensive-defense overhead vs optimization budget, per backend",
        &headers,
    );

    let all_configs: Vec<PibeConfig> = ladder
        .iter()
        .flat_map(|(_, c)| arches.iter().map(move |a| PibeConfig { arch: *a, ..*c }))
        .collect();
    lab.prefetch(&all_configs);

    let mut points = Vec::new();
    for (rung, config) in &ladder {
        let mut cells = vec![rung.to_string()];
        for arch in arches {
            let image = lab.image_for_arch(config, arch);
            let rows = lab.latencies(&image);
            let overhead = lab.geomean(&rows);
            let backend = arch.backend();
            let cycles_elided = image
                .icp_stats
                .iter()
                .map(|s| s.estimated_cycles_elided(backend, config.defenses))
                .chain(
                    image
                        .inline_stats
                        .iter()
                        .map(|s| s.estimated_cycles_elided(backend, config.defenses)),
                )
                .sum();
            cells.push(pct(overhead));
            points.push(CrossArchPoint {
                rung: rung.to_string(),
                arch: arch.name().to_string(),
                overhead_pct: overhead,
                cycles_elided,
            });
        }
        table.row(cells);
    }
    (table, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell<'a>(points: &'a [CrossArchPoint], rung: &str, arch: &str) -> &'a CrossArchPoint {
        points
            .iter()
            .find(|p| p.rung == rung && p.arch == arch)
            .unwrap_or_else(|| panic!("missing cell {rung}/{arch}"))
    }

    #[test]
    fn curves_rank_architectures_and_budgets_as_the_cost_models_predict() {
        let lab = Lab::test();
        let (_, points) = cross_arch(&lab);
        assert_eq!(points.len(), 5 * 4, "5 rungs x 4 arch columns");

        // Unoptimized: the retpoline family dwarfs hardware CFI, and the
        // NOP variant costs nothing at all.
        let x86 = cell(&points, "lto+defenses", "x86_64");
        let arm = cell(&points, "lto+defenses", "arm64");
        let riscv = cell(&points, "lto+defenses", "riscv64");
        let nop = cell(&points, "lto+defenses", "riscv64-nop");
        assert!(
            arm.overhead_pct < x86.overhead_pct / 2.0,
            "{arm:?} vs {x86:?}"
        );
        assert!(riscv.overhead_pct < x86.overhead_pct / 2.0);
        assert!(nop.overhead_pct.abs() < 1.0, "NOP variant is free: {nop:?}");

        // Budget monotonicity on x86: each rung of profile budget cuts
        // overhead further.
        let ladder = [
            "lto+defenses",
            "pibe@99",
            "pibe@99.9",
            "pibe@99.999",
            "pibe-lax",
        ];
        for pair in ladder.windows(2) {
            let (hi, lo) = (
                cell(&points, pair[0], "x86_64"),
                cell(&points, pair[1], "x86_64"),
            );
            assert!(
                lo.overhead_pct <= hi.overhead_pct + 1e-9,
                "x86 curve must fall: {} {:.2}% -> {} {:.2}%",
                hi.rung,
                hi.overhead_pct,
                lo.rung,
                lo.overhead_pct
            );
        }

        // The elided-cycles figure of merit scales with the backend cost
        // model: the same transformed weight elides far fewer cycles when
        // the residual defense is 1-cycle BTI than 41-cycle retpolines.
        let x86_lax = cell(&points, "pibe-lax", "x86_64");
        let arm_lax = cell(&points, "pibe-lax", "arm64");
        let nop_lax = cell(&points, "pibe-lax", "riscv64-nop");
        assert!(x86_lax.cycles_elided > 0);
        assert!(arm_lax.cycles_elided * 2 < x86_lax.cycles_elided);
        assert_eq!(
            nop_lax.cycles_elided, 0,
            "nothing to elide on the NOP variant"
        );
        assert_eq!(cell(&points, "lto+defenses", "x86_64").cycles_elided, 0);
    }
}
