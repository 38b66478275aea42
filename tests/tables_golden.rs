//! Byte identity of every regenerated table against a committed fixture.
//!
//! The test renders every experiment the `tables` binary runs (all but
//! its wall-clock build report) on `Lab::test()` and compares the text
//! with `tests/golden/tables_lab_test.txt` byte for byte. A change that
//! should not move any result — a faster simulator, a pooled measurement
//! loop, a layout memo — must leave this file untouched.
//!
//! The lab is pinned to x86, so the `PIBE_ARCH` matrix in CI compares the
//! same fixture. To regenerate it after an intended change of results,
//! run this test with `PIBE_BLESS=1` and review the diff.

use pibe::experiments::{self, Lab};
use pibe::Arch;
use std::path::PathBuf;

/// Macro-benchmark requests for Table 7 and the robustness sweep.
const REQUESTS: u32 = 10;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tables_lab_test.txt")
}

/// Renders every table in the order the `tables` binary prints them.
fn render_all() -> String {
    let mut lab = Lab::test();
    lab.arch = Arch::X86;
    let lab = &lab;
    let mut tables = vec![experiments::table1(), experiments::figure1()];
    for f in [
        experiments::table2,
        experiments::table3,
        experiments::table4,
        experiments::table5,
        experiments::table6,
        experiments::table8,
        experiments::table9,
        experiments::table10,
        experiments::table11,
        experiments::table12,
    ] {
        tables.push(f(lab));
    }
    tables.push(experiments::table7(lab, REQUESTS).expect("table 7 runs"));
    tables.push(
        experiments::profiling_convergence(lab)
            .expect("convergence runs")
            .0,
    );
    tables.push(experiments::eibrs_comparison(lab).0);
    tables.push(experiments::userspace(400).0);
    tables.push(experiments::spectre_v1_fencing(lab).0);
    tables.push(experiments::cycle_breakdown(lab).expect("breakdown runs").0);
    tables.push(experiments::rsb_refill_comparison(lab).0);
    tables.push(
        experiments::robustness(lab, REQUESTS)
            .expect("robustness runs")
            .0,
    );
    tables.push(experiments::cross_arch(lab).0);
    tables.iter().map(|t| format!("{t}\n")).collect()
}

#[test]
fn every_table_matches_the_committed_fixture() {
    let rendered = render_all();
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
            "tables differ from {} starting at line {}:\n  got:      {:?}\n  expected: {:?}",
            path.display(),
            line + 1,
            rendered.lines().nth(line).unwrap_or("<end of output>"),
            committed.lines().nth(line).unwrap_or("<end of output>"),
        );
    }
}
