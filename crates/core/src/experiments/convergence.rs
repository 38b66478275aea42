//! Profiling convergence: how many profiling rounds are enough?
//!
//! The paper aggregates 11 LMBench iterations "to obtain an exact profiling
//! workload" (§8). This experiment measures what those extra rounds buy:
//! the optimization-candidate overlap between an n-round profile and the
//! lab's full reference profile, at the 99.9% budget. Hot candidates
//! stabilise almost immediately (they dominate every round); the tail —
//! rarely-taken hooks, low-weight targets — is what the extra rounds
//! gradually pick up.

use super::{ExperimentError, Lab};
use crate::report::{pct, Table};
use pibe_kernel::measure::collect_profile_rounds;
use pibe_profile::{overlap, Budget, Profile};
use serde::{Deserialize, Serialize};

/// Overlap of an n-round profile's candidates with the reference profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvergencePoint {
    /// Profiling rounds aggregated.
    pub rounds: u32,
    /// ICP candidate-weight overlap with the reference (%).
    pub icp_shared_pct: f64,
    /// Inlining candidate-weight overlap with the reference (%).
    pub inline_shared_pct: f64,
}

/// The aggregated round counts the experiment reports, ascending.
const ROUND_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Measures candidate overlap for 1, 2, 4, and 8 aggregated rounds against
/// the lab's reference profile.
///
/// The 8 rounds are profiled once; the n-round profile is the merge of the
/// first n of them, which equals `collect_profile(.., n, ..)`.
///
/// # Errors
/// [`ExperimentError::Profiling`] naming the round count and seed when the
/// profiling runs fail.
pub fn profiling_convergence(lab: &Lab) -> Result<(Table, Vec<ConvergencePoint>), ExperimentError> {
    let mut table = Table::new(
        "Profiling convergence: candidate overlap with the reference profile (99.9% budget)",
        &[
            "rounds",
            "icp candidates shared",
            "inline candidates shared",
        ],
    );
    let max_rounds = ROUND_COUNTS[ROUND_COUNTS.len() - 1];
    let rounds =
        collect_profile_rounds(&lab.kernel, &lab.workload, &lab.suite, max_rounds, lab.seed)
            .map_err(|source| ExperimentError::Profiling {
                workload: format!("{} ({max_rounds} rounds)", lab.workload.name),
                seed: lab.seed,
                source,
            })?;
    let mut merged = Profile::new();
    let mut out = Vec::new();
    for (n, round) in (1..).zip(&rounds) {
        merged.merge(round);
        if !ROUND_COUNTS.contains(&n) {
            continue;
        }
        let ov = overlap::overlap(&lab.profile, &merged, Budget::P99_9);
        let point = ConvergencePoint {
            rounds: n,
            icp_shared_pct: ov.icp_shared_weight * 100.0,
            inline_shared_pct: ov.inline_shared_weight * 100.0,
        };
        table.row(vec![
            n.to_string(),
            pct(point.icp_shared_pct),
            pct(point.inline_shared_pct),
        ]);
        out.push(point);
    }
    Ok((table, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_round_already_captures_most_hot_weight() {
        let lab = Lab::test();
        let (_, points) = profiling_convergence(&lab).expect("convergence experiment runs");
        assert_eq!(points.len(), 4);
        // Even a single round covers the bulk of the candidate weight —
        // hot sites dominate every round.
        assert!(
            points[0].inline_shared_pct > 60.0,
            "round 1 inline overlap: {:.1}%",
            points[0].inline_shared_pct
        );
        // More rounds never lose ground dramatically (hot sets are stable).
        let last = points.last().unwrap();
        assert!(last.icp_shared_pct >= points[0].icp_shared_pct - 5.0);
        assert!(last.inline_shared_pct > 75.0);
    }

    /// Every point equals an independent `collect_profile(n)` run.
    #[test]
    fn each_point_equals_a_fresh_n_round_profile() {
        let lab = Lab::test();
        let (_, points) = profiling_convergence(&lab).expect("convergence experiment runs");
        let counts: Vec<u32> = points.iter().map(|p| p.rounds).collect();
        assert_eq!(counts, ROUND_COUNTS);
        for point in points {
            let p = pibe_kernel::measure::collect_profile(
                &lab.kernel,
                &lab.workload,
                &lab.suite,
                point.rounds,
                lab.seed,
            )
            .expect("profiling runs");
            let ov = overlap::overlap(&lab.profile, &p, Budget::P99_9);
            assert_eq!(
                point.icp_shared_pct.to_bits(),
                (ov.icp_shared_weight * 100.0).to_bits()
            );
            assert_eq!(
                point.inline_shared_pct.to_bits(),
                (ov.inline_shared_weight * 100.0).to_bits()
            );
        }
    }
}
