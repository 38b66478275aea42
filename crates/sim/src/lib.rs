//! # pibe-sim
//!
//! An instruction-level cycle-cost simulator standing in for the paper's
//! bare-metal Skylake testbed.
//!
//! The paper's overhead numbers are, to first order,
//!
//! ```text
//! cycles = Σ base instruction costs
//!        + Σ (executed hardened branch × per-defense delta)      (Table 1)
//!        + prediction effects (BTB misses on unprotected icalls,
//!          RSB underflows on deep unwinds)
//!        + locality effects (i-cache misses as inlining grows code)
//! ```
//!
//! and that is exactly what [`Simulator`] charges while *executing* the IR:
//! it maintains a call stack, resolves indirect-call targets through a
//! workload-supplied [`TargetResolver`], models a branch target buffer, a
//! 16-entry return stack buffer, and a set-associative instruction cache,
//! and adds the per-branch defense deltas from [`pibe_harden::costs`].
//!
//! Three measurement companions ride along:
//!
//! * profile collection ([`SimConfig::collect_profile`]) — the profiling
//!   phase of the paper's pipeline;
//! * attack accounting ([`attack`]) — which dynamic indirect branches an
//!   attacker could have hijacked under the configured defenses;
//! * the [`micro`] module — the empty-callee micro-measurements of Table 1.
//!
//! Determinism: all randomness comes from one seeded [`rand::rngs::SmallRng`];
//! identical inputs produce identical cycle counts, bit for bit.
//!
//! Speed: each simulator decodes a function on its first entry into the
//! straight-line op runs of its blocks, and charges a whole run per step.
//! Every counter, trace and error is the one stepping op by op would give.
//!
//! ## Example
//!
//! ```
//! use pibe_harden::DefenseSet;
//! use pibe_ir::{FunctionBuilder, Module, OpKind};
//! use pibe_sim::{FixedResolver, SimConfig, Simulator};
//!
//! let mut module = Module::new("demo");
//! let mut b = FunctionBuilder::new("work", 0);
//! b.ops(OpKind::Alu, 8);
//! b.ret();
//! let work = module.add_function(b.build());
//!
//! let cfg = SimConfig { defenses: DefenseSet::ALL, ..SimConfig::default() };
//! let mut sim = Simulator::new(&module, FixedResolver(work), 7, cfg);
//! let cycles = sim.call_entry(work)?;
//! assert!(cycles > 8, "eight ALU ops plus the hardened return");
//! # Ok::<(), pibe_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attack;
mod exec;
mod machine;
pub mod micro;

pub use attack::AttackReport;
pub use exec::{
    ExecStats, FixedResolver, JumpSwitchConfig, MapResolver, SimConfig, SimError, Simulator,
    TargetResolver, TraceEvent,
};
pub use machine::MachineConfig;
