//! Modules: the unit of whole-program optimization.
//!
//! A [`Module`] owns its functions behind `Arc`s (copy-on-write) and keys
//! them by dense [`FuncId`]s; names are interned [`Symbol`]s, so
//! [`Module::find_function`] is an interner lookup plus a `u32` scan, never
//! a string comparison per function.
//!
//! ```
//! use pibe_ir::{FunctionBuilder, Module, OpKind, BlockId};
//!
//! let mut m = Module::new("doc");
//! let mut b = FunctionBuilder::new("leaf", 0);
//! b.ops(OpKind::Alu, 2);
//! b.ret();
//! let id = m.add_function(b.build());
//!
//! // Blocks are (start, len) ranges over one flat instruction pool.
//! let f = m.function(id);
//! assert_eq!(f.num_blocks(), 1);
//! assert_eq!(f.block(BlockId::ENTRY).insts().len(), 2);
//! assert_eq!(f.iter_insts().count(), 2);
//! assert_eq!(m.find_function("leaf"), Some(id));
//! ```

use crate::func::Function;
use crate::ids::{FuncId, SiteId, Symbol};
use crate::inst::{Inst, Terminator};
use crate::verify::{self, VerifyError};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A whole program: the analogue of the paper's LTO-linked kernel bitcode.
///
/// All of PIBE's passes are interprocedural and operate on a `Module`.
///
/// Functions are stored behind [`Arc`]s, making the module **copy-on-write**:
/// `Module::clone` is O(#functions) pointer bumps with full structural
/// sharing, and only [`Module::function_mut`] (via [`Arc::make_mut`])
/// materialises a private copy of the one function actually written. This is
/// what makes the pipeline's transactional stage snapshots, rollback, and the
/// farm's per-build base clones proportional to *hot work* instead of module
/// size. Passes must therefore check read-only whether a function needs
/// changing before calling `function_mut` — an unconditional write walk
/// would degrade CoW back into a deep copy.
///
/// # Memoized analyses
///
/// The module memoizes its [`CallSites`] (which site ids are direct and
/// which indirect calls), the universe every profile is validated
/// against. Every `&mut self` accessor that can change a function body or
/// the function list drops it, `Clone` shares it (an unchanged base
/// module is scanned once however many images are built from it), a
/// deserialized module starts cold, and it is invisible to serialization
/// and `Debug`.
#[derive(Clone)]
pub struct Module {
    name: String,
    functions: Vec<Arc<Function>>,
    next_site: u64,
    /// Memoized call-site universe; unset means dirty.
    call_sites: OnceLock<Arc<CallSites>>,
}

impl fmt::Debug for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Module")
            .field("name", &self.name)
            .field("functions", &self.functions)
            .field("next_site", &self.next_site)
            .finish()
    }
}

/// The wire form: the module's own fields, without its memo.
#[derive(Serialize, Deserialize)]
struct ModuleWire {
    name: String,
    functions: Vec<Arc<Function>>,
    next_site: u64,
}

impl Serialize for Module {
    fn to_value(&self) -> serde::Value {
        ModuleWire {
            name: self.name.clone(),
            functions: self.functions.clone(),
            next_site: self.next_site,
        }
        .to_value()
    }
}

impl Deserialize for Module {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let w = ModuleWire::from_value(v)?;
        Ok(Module {
            name: w.name,
            functions: w.functions,
            next_site: w.next_site,
            call_sites: OnceLock::new(),
        })
    }
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            functions: Vec::new(),
            next_site: 0,
            call_sites: OnceLock::new(),
        }
    }

    /// Drops the memoized call sites. Called by every `&mut self` accessor
    /// that can change a function body or the function list.
    #[inline]
    fn invalidate(&mut self) {
        self.call_sites.take();
    }

    /// The module's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a function, assigning and returning its id.
    pub fn add_function(&mut self, mut f: Function) -> FuncId {
        self.invalidate();
        let id = FuncId::from_raw(self.functions.len() as u32);
        f.id = id;
        self.functions.push(Arc::new(f));
        id
    }

    /// Adds an already-shared function, assigning and returning its id.
    ///
    /// When `f.id()` already equals the assigned id the `Arc` is pushed
    /// as-is (no copy — the DCE sweep keeps every untouched survivor
    /// shared with the input module this way); otherwise the function is
    /// copied once to fix its id.
    pub fn add_function_arc(&mut self, mut f: Arc<Function>) -> FuncId {
        self.invalidate();
        let id = FuncId::from_raw(self.functions.len() as u32);
        if f.id != id {
            Arc::make_mut(&mut f).id = id;
        }
        self.functions.push(f);
        id
    }

    /// Replaces the function at `id` with `f`, fixing `f`'s id to match.
    /// Used to rebuild forward-referenced functions (generators create
    /// placeholder bodies first, then fill them in).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn replace_function(&mut self, id: FuncId, mut f: Function) {
        self.invalidate();
        f.id = id;
        self.functions[id.index()] = Arc::new(f);
    }

    /// The raw value the next [`Module::fresh_site`] call would return
    /// (used by the text parser to keep parsed site ids collision-free).
    pub fn peek_next_site(&self) -> u64 {
        self.next_site
    }

    /// Allocates a fresh, never-used call-site id. No instruction carries
    /// it yet, so the memoized [`CallSites`] stay valid.
    pub fn fresh_site(&mut self) -> SiteId {
        let id = SiteId::from_raw(self.next_site);
        self.next_site += 1;
        id
    }

    /// Returns the function with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to a function.
    ///
    /// Copy-on-write: when the function is shared with a snapshot (a cloned
    /// module), the first mutable access copies it; later accesses are free.
    /// Check read-only state first and call this only for functions that
    /// actually change.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        self.invalidate();
        Arc::make_mut(&mut self.functions[id.index()])
    }

    /// All functions in id order, behind their sharing handles.
    ///
    /// Iterating yields `&Arc<Function>`, which auto-derefs to
    /// [`Function`] for method calls; use [`Arc::ptr_eq`] on two modules'
    /// entries to observe structural sharing.
    pub fn functions(&self) -> &[Arc<Function>] {
        &self.functions
    }

    /// The sharing handle of one function (cheap to clone; parallel stages
    /// hand these to worker threads).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn function_arc(&self, id: FuncId) -> &Arc<Function> {
        &self.functions[id.index()]
    }

    /// Installs a (typically worker-produced) function at `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range or `f`'s id does not match `id` —
    /// deterministic parallel merges are keyed by function id.
    pub fn set_function_arc(&mut self, id: FuncId, f: Arc<Function>) {
        assert_eq!(f.id, id, "merged function must keep its id");
        self.invalidate();
        self.functions[id.index()] = f;
    }

    /// Iterates over function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> {
        (0..self.functions.len() as u32).map(FuncId::from_raw)
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True when the module has no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Looks a function up by name. The name is resolved through the symbol
    /// interner first, so a miss costs one hash lookup and a hit scans
    /// `u32`s, never strings.
    pub fn find_function(&self, name: &str) -> Option<FuncId> {
        let sym = Symbol::lookup(name)?;
        self.functions
            .iter()
            .position(|f| f.name == sym)
            .map(|i| FuncId::from_raw(i as u32))
    }

    /// Checks structural invariants; see [`VerifyError`] for the conditions.
    pub fn verify(&self) -> Result<(), VerifyError> {
        verify::verify(self)
    }

    /// Like [`Module::verify`], fanning the independent per-function checks
    /// across up to `threads` workers. On failure the reported error is the
    /// one the sequential walk would find first (lowest offending function
    /// id), so diagnostics are identical under any thread count.
    pub fn verify_threaded(&self, threads: usize) -> Result<(), VerifyError> {
        verify::verify_with_threads(self, threads)
    }

    /// The module's call-site universe, scanned from every instruction on
    /// first use and memoized until a mutating accessor runs. Clones of an
    /// unchanged module share one scan.
    pub fn call_sites(&self) -> &CallSites {
        self.call_sites.get_or_init(|| {
            let _span = pibe_trace::span("ir.call_sites");
            Arc::new(CallSites::scan(self))
        })
    }

    /// The memoized call sites, if warm (memo tests only).
    #[cfg(test)]
    fn cached_call_sites(&self) -> Option<&Arc<CallSites>> {
        self.call_sites.get()
    }

    /// Counts the static branch population of the module — the denominators
    /// of the paper's Tables 10 and 11.
    pub fn census(&self) -> BranchCensus {
        let mut c = BranchCensus::default();
        for f in &self.functions {
            // Flat pool scan: tombstones are plain `Op`s and cannot match.
            for inst in f.insts() {
                match inst {
                    Inst::Call { .. } => c.direct_calls += 1,
                    Inst::CallIndirect { .. } => c.indirect_calls += 1,
                    _ => {}
                }
            }
            for term in f.terms() {
                match term {
                    Terminator::Return => c.returns += 1,
                    Terminator::Switch { via_table, .. } if *via_table => c.indirect_jumps += 1,
                    _ => {}
                }
            }
        }
        c
    }

    /// Total code size in model bytes (the paper's "img size" numerator).
    pub fn code_bytes(&self) -> u64 {
        self.functions
            .iter()
            .map(|f| crate::size::function_bytes(f))
            .sum()
    }
}

/// The set of direct and the set of indirect call sites of a module: the
/// universe a profile's site-keyed counts must fall inside. Obtained from
/// [`Module::call_sites`], which memoizes it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallSites {
    direct: HashSet<SiteId>,
    indirect: HashSet<SiteId>,
}

impl CallSites {
    /// Scans every instruction of `module`.
    fn scan(module: &Module) -> Self {
        let mut sites = CallSites::default();
        for f in &module.functions {
            // Flat pool scan: tombstones are plain ops and cannot match.
            for inst in f.insts() {
                match inst {
                    Inst::Call { site, .. } => {
                        sites.direct.insert(*site);
                    }
                    Inst::CallIndirect { site, .. } => {
                        sites.indirect.insert(*site);
                    }
                    _ => {}
                }
            }
        }
        sites
    }

    /// True when some direct call in the module carries `site`.
    pub fn is_direct(&self, site: SiteId) -> bool {
        self.direct.contains(&site)
    }

    /// True when some indirect call in the module carries `site`.
    pub fn is_indirect(&self, site: SiteId) -> bool {
        self.indirect.contains(&site)
    }
}

/// Static counts of each branch kind in a module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchCensus {
    /// Number of static direct call sites.
    pub direct_calls: u64,
    /// Number of static indirect call sites.
    pub indirect_calls: u64,
    /// Number of static indirect jumps (jump-table switches).
    pub indirect_jumps: u64,
    /// Number of static return sites.
    pub returns: u64,
}

impl BranchCensus {
    /// Total indirect branches (the attack surface): icalls + ijumps + rets.
    pub fn indirect_total(&self) -> u64 {
        self.indirect_calls + self.indirect_jumps + self.returns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::OpKind;

    fn sample_module() -> Module {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("leaf", 0);
        b.op(OpKind::Alu);
        b.ret();
        let leaf = m.add_function(b.build());

        let s1 = m.fresh_site();
        let s2 = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        b.call(s1, leaf, 0);
        b.call_indirect(s2, 1);
        b.ret();
        m.add_function(b.build());
        m
    }

    #[test]
    fn add_function_assigns_dense_ids() {
        let m = sample_module();
        assert_eq!(m.len(), 2);
        assert_eq!(m.function(FuncId::from_raw(0)).name(), "leaf");
        assert_eq!(m.function(FuncId::from_raw(1)).name(), "root");
        assert_eq!(m.find_function("root"), Some(FuncId::from_raw(1)));
        assert_eq!(m.find_function("missing"), None);
    }

    #[test]
    fn fresh_sites_never_repeat() {
        let mut m = Module::new("m");
        let a = m.fresh_site();
        let b = m.fresh_site();
        assert_ne!(a, b);
    }

    #[test]
    fn census_counts_each_branch_kind() {
        let m = sample_module();
        let c = m.census();
        assert_eq!(c.direct_calls, 1);
        assert_eq!(c.indirect_calls, 1);
        assert_eq!(c.returns, 2);
        assert_eq!(c.indirect_jumps, 0);
        assert_eq!(c.indirect_total(), 3);
    }

    #[test]
    fn code_bytes_is_positive_for_nonempty_module() {
        let m = sample_module();
        assert!(m.code_bytes() > 0);
    }

    #[test]
    fn module_serde_roundtrip_preserves_everything() {
        let m = sample_module();
        let json = serde_json::to_string(&m).expect("module serializes");
        let back: Module = serde_json::from_str(&json).expect("module parses");
        assert_eq!(back.name(), m.name());
        assert_eq!(back.len(), m.len());
        assert_eq!(back.functions(), m.functions());
        assert_eq!(back.peek_next_site(), m.peek_next_site());
        back.verify().unwrap();
    }

    /// A function `name` with one direct call of `callee` through a fresh
    /// site of `m`: adding it grows the direct call-site set.
    fn caller_of(m: &mut Module, name: &str, callee: FuncId) -> Function {
        let site = m.fresh_site();
        let mut b = FunctionBuilder::new(name, 0);
        b.call(site, callee, 0);
        b.ret();
        b.build()
    }

    /// A call-free function with id `id`, as `set_function_arc` demands.
    fn callless(name: &str, id: FuncId) -> Function {
        let mut b = FunctionBuilder::new(name, 0);
        b.ret();
        let mut f = b.build();
        f.id = id;
        f
    }

    /// Every mutating accessor drops the call-site memo: after warming it
    /// and mutating, the memoized sites equal a scan from scratch (and
    /// move whenever the mutation changed the calls). `fresh_site` changes
    /// no instruction, so it keeps the memo warm.
    #[test]
    fn call_sites_memo_is_invalidated_by_every_mutating_accessor() {
        let leaf = FuncId::from_raw(0);
        let root = FuncId::from_raw(1);
        type Edit = Box<dyn Fn(&mut Module)>;
        let edits: Vec<(&str, bool, Edit)> = vec![
            (
                "add_function",
                true,
                Box::new(move |m| {
                    let f = caller_of(m, "extra", leaf);
                    m.add_function(f);
                }),
            ),
            (
                "add_function_arc",
                true,
                Box::new(move |m| {
                    let f = caller_of(m, "extra", leaf);
                    m.add_function_arc(Arc::new(f));
                }),
            ),
            (
                "replace_function",
                true,
                Box::new(move |m| m.replace_function(root, callless("root2", root))),
            ),
            (
                "function_mut",
                true,
                Box::new(move |m| {
                    m.function_mut(root).remove_inst(crate::BlockId::ENTRY, 0);
                }),
            ),
            (
                "set_function_arc",
                true,
                Box::new(move |m| m.set_function_arc(root, Arc::new(callless("root2", root)))),
            ),
            (
                "fresh_site",
                false,
                Box::new(|m| {
                    m.fresh_site();
                }),
            ),
        ];
        for (name, invalidates, edit) in edits {
            let mut m = sample_module();
            let before = m.call_sites().clone();
            assert!(m.cached_call_sites().is_some(), "{name}: memo warm");
            edit(&mut m);
            assert_eq!(
                m.cached_call_sites().is_none(),
                invalidates,
                "{name}: memo dropped = {invalidates}"
            );
            let after = m.call_sites();
            assert_eq!(*after, CallSites::scan(&m), "{name}: stale call sites");
            assert_eq!(*after != before, invalidates, "{name}: sites moved");
        }
    }

    /// The memo is shared by `Clone`, starts cold in a new or deserialized
    /// module, and reports exactly the sites the module's calls carry.
    #[test]
    fn call_sites_memo_is_shared_and_starts_cold() {
        let m = sample_module();
        assert!(m.cached_call_sites().is_none(), "built cold");
        let cold_copy = m.clone();
        let sites = m.call_sites();
        assert!(sites.is_direct(SiteId::from_raw(0)));
        assert!(sites.is_indirect(SiteId::from_raw(1)));
        assert!(!sites.is_direct(SiteId::from_raw(1)));
        assert!(!sites.is_indirect(SiteId::from_raw(0)));
        assert!(!sites.is_direct(SiteId::from_raw(2)));
        assert!(
            cold_copy.cached_call_sites().is_none(),
            "a cold clone stays cold"
        );

        let copy = m.clone();
        assert!(Arc::ptr_eq(
            copy.cached_call_sites().expect("clone keeps the memo"),
            m.cached_call_sites().expect("memo warm"),
        ));

        let json = serde_json::to_string(&m).expect("module serializes");
        let back: Module = serde_json::from_str(&json).expect("module parses");
        assert!(back.cached_call_sites().is_none(), "deserialized cold");
        assert_eq!(back.call_sites(), sites);
    }

    /// The memo is invisible on the wire and in `Debug`: a module
    /// serializes to the same bytes as before the memo existed, warm or
    /// cold.
    #[test]
    fn call_sites_memo_leaves_the_wire_form_unchanged() {
        const WIRE: &str = concat!(
            r#"{"name":"m","functions":[{"name":"leaf","id":0,"args":0,"blocks":"#,
            r#"[{"insts":[{"Op":"Alu"}],"term":"Return"}],"attrs":{"noinline":false,"#,
            r#""optnone":false,"inline_asm":false,"boot_only":false},"frame_bytes":64},"#,
            r#"{"name":"root","id":1,"args":0,"blocks":[{"insts":[{"Call":{"site":0,"#,
            r#""callee":0,"args":0}},{"CallIndirect":{"site":1,"args":1,"resolved":false,"#,
            r#""asm":false}}],"term":"Return"}],"attrs":{"noinline":false,"optnone":false,"#,
            r#""inline_asm":false,"boot_only":false},"frame_bytes":64}],"next_site":2}"#,
        );
        let m = sample_module();
        assert_eq!(serde_json::to_string(&m).unwrap(), WIRE, "cold");
        let cold_debug = format!("{m:?}");
        m.call_sites();
        assert_eq!(serde_json::to_string(&m).unwrap(), WIRE, "warm");
        assert_eq!(format!("{m:?}"), cold_debug);
        assert!(!cold_debug.contains("call_sites"), "{cold_debug}");
    }

    #[test]
    fn replace_function_fixes_the_id() {
        let mut m = sample_module();
        let root = m.find_function("root").unwrap();
        let mut b = FunctionBuilder::new("root2", 0);
        b.ret();
        m.replace_function(root, b.build());
        assert_eq!(m.function(root).id(), root);
        assert_eq!(m.function(root).name(), "root2");
        m.verify().unwrap();
    }
}
