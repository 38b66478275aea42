//! Direct calls into layers the workloads only reach from inside the
//! program (the simulator's set-up inside every table, the drift surface
//! inside every serve epoch, ...), made on the workload's own inputs after
//! its timed loop. Only traced runs make them.

use crate::layers::Layers;
use crate::stats::{median, ns_since};
use pibe::{eval, PibeConfig};
use pibe_ir::size::Layout;
use pibe_ir::Module;
use pibe_kernel::workloads::{Benchmark, WorkloadSpec};
use pibe_kernel::Kernel;
use pibe_profile::{DecisionSurface, ModuleIndex, Profile};
use pibe_sim::{SimConfig, Simulator};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each cheap probe; the median is reported.
const REPS: usize = 5;

/// Median wall time of `REPS` calls of `f`, in ms.
fn time_ms(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            ns_since(t) as f64 / 1e6
        })
        .collect();
    median(&samples)
}

/// The inputs a workload measured with.
#[derive(Debug)]
pub struct Inputs<'a> {
    /// The generated kernel.
    pub kernel: &'a Kernel,
    /// The profiling workload.
    pub workload: &'a WorkloadSpec,
    /// The latency suite.
    pub suite: &'a [Benchmark],
    /// The training profile.
    pub profile: &'a Profile,
    /// A second profile of the same kernel (another workload's, or a later
    /// cumulative one) for drift detection.
    pub drifted: &'a Profile,
    /// Deltas to merge into `profile`.
    pub deltas: &'a [Profile],
    /// The configuration the workload builds for drift tracking.
    pub config: PibeConfig,
    /// Simulation seed.
    pub seed: u64,
    /// Stage worker threads.
    pub threads: usize,
}

/// Runs every probe and records its figure.
pub fn run(layers: &mut Layers, inp: &Inputs<'_>) {
    let module = &inp.kernel.module;

    // pibe-ir: the layout every simulator instance computes, and a cold
    // verification (a deep copy whose per-function memos are reset).
    layers.set(
        "ir.layout_ms",
        time_ms(|| drop(black_box(Layout::of(module)))),
    );
    layers.set("ir.verify_ms", cold_verify_ms(module, inp.threads));

    // pibe-sim: set-up cost per instance, interpretation cost per
    // instruction over one pass of the suite, and one whole suite.
    let news: Vec<f64> = (0..REPS)
        .map(|_| {
            let resolver = inp.workload.resolver(inp.kernel);
            let t = Instant::now();
            let sim = black_box(Simulator::new(
                module,
                resolver,
                inp.seed,
                SimConfig::default(),
            ));
            let elapsed = ns_since(t) as f64 / 1e6;
            drop(sim);
            elapsed
        })
        .collect();
    layers.set("sim.new_ms", median(&news));
    let (run_ns, insts) = interpret(inp);
    layers.set("sim.insts", insts as f64);
    layers.set(
        "sim.ns_per_inst",
        if insts == 0 {
            0.0
        } else {
            run_ns as f64 / insts as f64
        },
    );
    let t = Instant::now();
    black_box(eval::lmbench_latencies(
        module,
        inp.kernel,
        inp.workload,
        inp.suite,
        SimConfig::default(),
        inp.seed,
    ));
    layers.set("sim.suite_ms", ns_since(t) as f64 / 1e6);

    // pibe-profile: validation, checked merges, and drift detection.
    layers.set(
        "profile.validate_ms",
        time_ms(|| drop(black_box(inp.profile.validate_against(module)))),
    );
    let merges: Vec<f64> = inp
        .deltas
        .iter()
        .map(|d| {
            let mut scratch = inp.profile.clone();
            let t = Instant::now();
            black_box(scratch.merge_checked(d));
            ns_since(t) as f64 / 1e6
        })
        .collect();
    layers.set("profile.merge_ms", median(&merges));
    let drift = pibe_serve::drift_config(&inp.config);
    layers.set(
        "drift.index_ms",
        time_ms(|| drop(black_box(ModuleIndex::new(module)))),
    );
    let index = ModuleIndex::new(module);
    layers.set(
        "drift.surface_ms",
        time_ms(|| {
            drop(black_box(DecisionSurface::compute(
                &index,
                inp.profile,
                &drift,
            )))
        }),
    );
    let before = DecisionSurface::compute(&index, inp.profile, &drift);
    let after = DecisionSurface::compute(&index, inp.drifted, &drift);
    layers.set(
        "drift.diff_ms",
        time_ms(|| drop(black_box(before.diff(&after)))),
    );
    layers.set(
        "drift.drifted_functions",
        before.diff(&after).drifted_functions() as f64,
    );
}

/// Interprets the whole suite once on the base module: wall time inside
/// `call_entry` and instructions executed.
fn interpret(inp: &Inputs<'_>) -> (u64, u64) {
    let resolver = inp.workload.resolver(inp.kernel);
    let mut sim = Simulator::new(&inp.kernel.module, resolver, inp.seed, SimConfig::default());
    let mut run_ns = 0;
    for b in inp.suite {
        let entry = inp.kernel.entry(b.syscall);
        let t = Instant::now();
        for _ in 0..b.warmup + b.iterations {
            if sim.call_entry(entry).is_err() {
                break;
            }
        }
        run_ns += ns_since(t);
    }
    (run_ns, sim.stats().insts)
}

/// One verification of `module` with cold per-function memos, in ms.
fn cold_verify_ms(module: &Module, threads: usize) -> f64 {
    let mut cold = module.clone();
    for id in module.func_ids().collect::<Vec<_>>() {
        let f = cold.function_mut(id);
        let frame = f.frame_bytes();
        f.set_frame_bytes(frame);
    }
    let t = Instant::now();
    let ok = cold.verify_threaded(threads).is_ok();
    let elapsed = ns_since(t) as f64 / 1e6;
    black_box(ok);
    elapsed
}
