//! Exactness of the simulator against committed fixtures.
//!
//! Every paper number is a simulated cycle count, so a change to the
//! interpreter's speed must not move a single counter. This test runs the
//! LMBench suite on `KernelSpec::test()` under every simulator mode —
//! plain, all defenses with attack tracking on every arch, JumpSwitches,
//! eIBRS, RSB refilling, profile collection, trace collection, and a
//! step limit that lands mid-suite — plus a PIBE image (promotion guard
//! chains, inlined bodies) and a window of generated difftest programs
//! (switches, loops, recursion, sites that never resolve). It pins each
//! run's `ExecStats`, `AttackReport`, error, and a hash of its trace in
//! `tests/golden/sim_lmbench_test.txt`, and the serialized profile in
//! `tests/golden/sim_profile_test.json`.
//!
//! To regenerate the fixtures after an intended change of results, run
//! this test with `PIBE_BLESS=1` and review the diff.

use pibe::{Image, PibeConfig};
use pibe_difftest::{gen_case, GenConfig};
use pibe_harden::{Arch, DefenseSet};
use pibe_ir::{FuncId, Module};
use pibe_kernel::workloads::lmbench_suite;
use pibe_kernel::{Kernel, KernelSpec, WorkloadSpec};
use pibe_profile::Budget;
use pibe_sim::{JumpSwitchConfig, MapResolver, SimConfig, Simulator};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Per-benchmark iteration count of the suite.
const ITERS: u32 = 6;
/// Seed of every simulator the test creates.
const SEED: u64 = 0x51_3D;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// FNV-1a over `bytes`: a stable hash for long observations.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `entries` in order on one simulator and appends a record named
/// `name`: the first error (the run stops there), the stats, the attack
/// report, and the trace's length and hash. Returns the simulator's
/// profile.
fn run(
    out: &mut String,
    name: &str,
    module: &Module,
    resolver: MapResolver,
    cfg: SimConfig,
    entries: &[FuncId],
) -> pibe_profile::Profile {
    let mut sim = Simulator::new(module, resolver, SEED, cfg);
    let error = entries
        .iter()
        .find_map(|&e| sim.call_entry(e).err())
        .map_or_else(|| "none".to_string(), |e| e.to_string());
    let trace = sim.take_trace();
    let trace_text: String = trace.iter().map(|ev| format!("{ev:?}\n")).collect();
    writeln!(
        out,
        "{name}\n  error: {error}\n  stats: {}\n  attacks: {}\n  trace: {} events, fnv {:016x}",
        serde_json::to_string(sim.stats()).expect("stats serialize"),
        serde_json::to_string(sim.attacks()).expect("attacks serialize"),
        trace.len(),
        fnv1a(trace_text.as_bytes()),
    )
    .expect("write to string");
    sim.take_profile()
}

/// Renders both fixtures: the record text and the profile JSON.
fn render_all() -> (String, String) {
    let kernel = Kernel::generate(KernelSpec::test());
    let workload = WorkloadSpec::lmbench();
    let entries: Vec<FuncId> = lmbench_suite(ITERS)
        .iter()
        .flat_map(|b| {
            std::iter::repeat_n(kernel.entry(b.syscall), (b.warmup + b.iterations) as usize)
        })
        .collect();
    let mut out = String::new();
    let mut suite = |name: &str, module: &Module, cfg: SimConfig| {
        let resolver = workload.resolver(&kernel);
        run(&mut out, name, module, resolver, cfg, &entries)
    };
    let km = &kernel.module;
    let attacks = |defenses: DefenseSet| SimConfig {
        defenses,
        track_attacks: true,
        ..SimConfig::default()
    };

    suite("kernel plain", km, SimConfig::default());
    for arch in Arch::ALL {
        let cfg = SimConfig {
            arch,
            ..attacks(DefenseSet::ALL)
        };
        suite(&format!("kernel all {arch:?}"), km, cfg);
    }
    let jumpswitch = SimConfig {
        jumpswitch: Some(JumpSwitchConfig::default()),
        ..attacks(DefenseSet::RETPOLINES)
    };
    suite("kernel jumpswitch", km, jumpswitch);
    let eibrs = SimConfig {
        eibrs: true,
        ..attacks(DefenseSet::NONE)
    };
    suite("kernel eibrs", km, eibrs);
    let refill = SimConfig {
        rsb_refill: true,
        ..attacks(DefenseSet::RET_RETPOLINES)
    };
    suite("kernel rsb_refill", km, refill);
    let profiling = SimConfig {
        collect_profile: true,
        ..SimConfig::default()
    };
    let profile = suite("kernel collect_profile", km, profiling);
    let tracing = SimConfig {
        collect_trace: true,
        ..attacks(DefenseSet::ALL)
    };
    suite("kernel collect_trace", km, tracing);
    // A step limit that cuts the suite off in the middle of a function.
    let limited = SimConfig {
        max_steps: 12_345,
        collect_trace: true,
        ..SimConfig::default()
    };
    suite("kernel max_steps", km, limited);

    // A PIBE image: promotion guard chains and inlined bodies, hardened.
    let image = Image::builder(km)
        .profile(&profile)
        .config(PibeConfig::full(Budget::P99_9, DefenseSet::ALL))
        .build()
        .expect("the test kernel builds");
    suite("image pibe-all collect_trace", &image.module, tracing);

    // Generated programs: switches, loops, recursion, and sites whose
    // target distribution is empty (an `UnknownTarget` mid-run).
    for seed in 0..24 {
        let case = gen_case(seed, &GenConfig::default());
        let runs = vec![case.entry; case.runs as usize];
        for (mode, cfg) in [("plain", SimConfig::default()), ("all", tracing)] {
            let cfg = SimConfig {
                max_steps: 200_000,
                ..cfg
            };
            run(
                &mut out,
                &format!("difftest seed {seed} {mode}"),
                &case.module,
                case.resolver.bind(&case.module),
                cfg,
                &runs,
            );
        }
    }
    (out, profile.to_json())
}

/// Compares `rendered` with the fixture `name`, or rewrites it under
/// `PIBE_BLESS`.
fn check(name: &str, rendered: &str) {
    let path = fixture(name);
    if std::env::var_os("PIBE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture has a parent"))
            .expect("create fixture dir");
        std::fs::write(&path, rendered).expect("write fixture");
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
            "simulator output differs from {} starting at line {}:\n  got:      {:?}\n  expected: {:?}",
            path.display(),
            line + 1,
            rendered.lines().nth(line).unwrap_or("<end of output>"),
            committed.lines().nth(line).unwrap_or("<end of output>"),
        );
    }
}

#[test]
fn simulator_runs_match_the_committed_fixtures() {
    let (records, profile) = render_all();
    check("sim_lmbench_test.txt", &records);
    check("sim_profile_test.json", &profile);
}
