//! Functions and basic blocks, stored as contiguous pools.
//!
//! A [`Function`] keeps **one instruction pool** (`Vec<Inst>`) and **one
//! block pool** (`Vec<BlockMeta>`) instead of a `Vec` of heap-allocated
//! blocks. Each block is a `(start, len)` range into the instruction pool
//! plus its [`Terminator`], so whole-function walks — the verifier, DCE's
//! out-edge scan, the census, the cost models — are linear scans over two
//! flat arrays with no per-block pointer chasing. See `docs/IR.md` for the
//! layout, its invariants, and how the structural editors below maintain
//! them.
//!
//! [`Block`] (owned instructions + terminator) survives as the *edit
//! representation*: builders and structural rewrites assemble `Block`s and
//! pack them via [`Function::set_blocks`]; readers get [`BlockRef`] views
//! that borrow straight from the pools.

use crate::ids::{BlockId, FuncId, SiteId, Symbol};
use crate::inst::{Inst, OpKind, Terminator};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A basic block in its *owned* form: straight-line instructions ended by
/// one terminator.
///
/// This is the edit representation — what [`FunctionBuilder`] terminates,
/// what [`Function::to_blocks`] materializes, and what
/// [`Function::set_blocks`] packs back into the pools. Inside a built
/// [`Function`] blocks exist only as ranges; use [`Function::block`] to get
/// a borrowing [`BlockRef`] view.
///
/// [`FunctionBuilder`]: crate::FunctionBuilder
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// The block's non-terminator instructions, in execution order.
    pub insts: Vec<Inst>,
    /// The block's terminator.
    pub term: Terminator,
}

impl Block {
    /// Creates a block with the given instructions and terminator.
    pub fn new(insts: Vec<Inst>, term: Terminator) -> Self {
        Block { insts, term }
    }

    /// Iterates over the call sites appearing in this block.
    pub fn call_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.insts.iter().filter_map(Inst::call_site)
    }
}

/// One block's packed record: a range into the function's instruction pool
/// plus the terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BlockMeta {
    pub(crate) start: u32,
    pub(crate) len: u32,
    pub(crate) term: Terminator,
}

/// A borrowed view of one block inside a [`Function`]: a slice of the
/// instruction pool plus the terminator.
#[derive(Debug, Clone, Copy)]
pub struct BlockRef<'a> {
    insts: &'a [Inst],
    term: &'a Terminator,
}

impl<'a> BlockRef<'a> {
    /// The block's non-terminator instructions, in execution order.
    pub fn insts(self) -> &'a [Inst] {
        self.insts
    }

    /// The block's terminator.
    pub fn term(self) -> &'a Terminator {
        self.term
    }

    /// Number of non-terminator instructions.
    pub fn len(self) -> usize {
        self.insts.len()
    }

    /// True when the block carries only a terminator.
    pub fn is_empty(self) -> bool {
        self.insts.is_empty()
    }

    /// Iterates over the call sites appearing in this block.
    pub fn call_sites(self) -> impl Iterator<Item = SiteId> + 'a {
        self.insts.iter().filter_map(Inst::call_site)
    }

    /// Materializes the block into its owned edit representation.
    pub fn to_block(self) -> Block {
        Block::new(self.insts.to_vec(), self.term.clone())
    }
}

/// Function attributes constraining what the optimizer may do.
///
/// These model the attribute set the paper's Table 9 groups under "other"
/// inlining inhibitors: `optnone` callers, `noinline` callees, and the
/// paravirtualised inline-assembly call sites (§8.6) that LLVM's retpoline
/// pass cannot instrument.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FnAttrs {
    /// Never inline this function into callers.
    pub noinline: bool,
    /// Never optimize call sites *inside* this function.
    pub optnone: bool,
    /// The function body is (modelled) inline assembly, e.g. a kernel
    /// paravirt hypercall macro. Its indirect calls cannot be hardened by
    /// the compiler and stay vulnerable even under full mitigation
    /// (the 41 "Vuln. ICalls" of Table 11).
    pub inline_asm: bool,
    /// Executes only during system boot; its branches are not reachable by
    /// transient attacks after boot (§8.6) and are excluded from the audit's
    /// vulnerable counts.
    pub boot_only: bool,
}

/// A function: an argument count, a CFG of blocks over a flat instruction
/// pool, attributes, and a stack frame size used by the simulator's stack
/// accounting (the resource Rule 2 of the inliner protects).
///
/// # Pool invariants
///
/// * Block ranges are disjoint and lie inside the instruction pool.
/// * Ranges need not be contiguous or in pool order: the structural editors
///   ([`split_block`](Function::split_block),
///   [`splice_body`](Function::splice_body)) leave *tombstones* — dead
///   `Op(Mov)` slots — where an instruction was deleted, so a splice is
///   pure range arithmetic plus one `memcpy` of the donor body. Tombstones
///   are never reachable through any block range.
/// * The canonical instruction order is **block order**
///   ([`iter_insts`](Function::iter_insts)); raw-pool walks
///   ([`insts`](Function::insts)) additionally see tombstones and must only
///   be used for scans where a dead `Op` cannot change the answer (e.g.
///   filtering for calls).
///
/// Equality, hashing of names, serialization, and printing all use the
/// canonical block order, so two functions that differ only in tombstone
/// layout compare equal and serialize identically ([`set_blocks`]
/// re-packs, dropping tombstones).
///
/// # Memoized analyses
///
/// Because functions are shared copy-on-write (`Arc<Function>` inside a
/// module), an unchanged body is typically verified, size-costed and laid
/// out many times across pipeline stages, sibling builds and simulator
/// runs. Three interior-mutable caches make those repeats free: the last
/// clean verification (keyed by the module size it was checked against),
/// the encoded byte size, and the block byte offsets the code layout
/// places the body with. Every `&mut self` accessor invalidates all
/// three, the caches survive `Clone` (the offsets as a shared `Arc`), a
/// deserialized or newly built body starts with all three cold, and they
/// are invisible to equality, serialization, and printing.
///
/// [`set_blocks`]: Function::set_blocks
#[derive(Debug)]
pub struct Function {
    pub(crate) name: Symbol,
    pub(crate) id: FuncId,
    pub(crate) args: u8,
    pub(crate) attrs: FnAttrs,
    pub(crate) frame_bytes: u32,
    pub(crate) insts: Vec<Inst>,
    pub(crate) blocks: Vec<BlockMeta>,
    /// `nfuncs + 1` of the module this body last verified clean against;
    /// 0 means dirty. Exact-match keyed: DCE shrinks the module, so a
    /// survivor re-verifies against the new function count.
    verified_ok: AtomicU32,
    /// Memoized encoded byte size; `u64::MAX` means dirty.
    cached_bytes: AtomicU64,
    /// Memoized block byte offsets: `num_blocks + 1` prefix sums in block
    /// order, so block `b` spans `offsets[b]..offsets[b + 1]`. Unset means
    /// dirty. Shared by `Arc`, so every copy-on-write image that keeps
    /// this body reuses one allocation.
    block_offsets: OnceLock<Arc<[u32]>>,
}

impl Clone for Function {
    fn clone(&self) -> Self {
        Function {
            name: self.name,
            id: self.id,
            args: self.args,
            attrs: self.attrs,
            frame_bytes: self.frame_bytes,
            insts: self.insts.clone(),
            blocks: self.blocks.clone(),
            // A clone of a verified body is still verified.
            verified_ok: AtomicU32::new(self.verified_ok.load(Ordering::Relaxed)),
            cached_bytes: AtomicU64::new(self.cached_bytes.load(Ordering::Relaxed)),
            block_offsets: self.block_offsets.clone(),
        }
    }
}

/// The tombstone written over deleted instruction slots. A plain register
/// move: harmless to every raw-pool filter (it is not a call, resolve, or
/// fence) and carries no ids that could dangle.
const TOMBSTONE: Inst = Inst::Op(OpKind::Mov);

impl Function {
    /// Creates a function from owned blocks. `id` is assigned when added to
    /// a module; use [`FunctionBuilder`](crate::FunctionBuilder) rather than
    /// calling this directly.
    pub(crate) fn new(
        name: String,
        args: u8,
        blocks: Vec<Block>,
        attrs: FnAttrs,
        frame_bytes: u32,
    ) -> Self {
        let mut f = Function {
            name: Symbol::intern(&name),
            id: FuncId::from_raw(u32::MAX),
            args,
            attrs,
            frame_bytes,
            insts: Vec::new(),
            blocks: Vec::new(),
            verified_ok: AtomicU32::new(0),
            cached_bytes: AtomicU64::new(u64::MAX),
            block_offsets: OnceLock::new(),
        };
        f.set_blocks(blocks);
        f
    }

    /// Drops every memoized analysis. Called by every `&mut self` accessor
    /// that can change what the verifier, the size model or the layout
    /// would see.
    #[inline]
    fn invalidate(&mut self) {
        *self.verified_ok.get_mut() = 0;
        *self.cached_bytes.get_mut() = u64::MAX;
        self.block_offsets.take();
    }

    /// True when this body verified clean against a module of `nfuncs`
    /// functions and has not been mutated since.
    pub(crate) fn is_verified_for(&self, nfuncs: usize) -> bool {
        let key = u32::try_from(nfuncs).ok().and_then(|n| n.checked_add(1));
        key.is_some_and(|k| self.verified_ok.load(Ordering::Relaxed) == k)
    }

    /// Records a clean verification against a module of `nfuncs` functions.
    pub(crate) fn mark_verified_for(&self, nfuncs: usize) {
        if let Some(key) = u32::try_from(nfuncs).ok().and_then(|n| n.checked_add(1)) {
            self.verified_ok.store(key, Ordering::Relaxed);
        }
    }

    /// The memoized encoded byte size, if still valid.
    pub(crate) fn cached_bytes(&self) -> Option<u64> {
        match self.cached_bytes.load(Ordering::Relaxed) {
            u64::MAX => None,
            v => Some(v),
        }
    }

    /// Memoizes the encoded byte size computed by the size model.
    pub(crate) fn set_cached_bytes(&self, bytes: u64) {
        if bytes != u64::MAX {
            self.cached_bytes.store(bytes, Ordering::Relaxed);
        }
    }

    /// The memoized block byte offsets, computing them with `compute` when
    /// cold.
    pub(crate) fn block_offsets_with(&self, compute: impl FnOnce() -> Arc<[u32]>) -> &Arc<[u32]> {
        self.block_offsets.get_or_init(compute)
    }

    /// The memoized block byte offsets, if warm (memo tests only).
    #[cfg(test)]
    pub(crate) fn cached_block_offsets(&self) -> Option<&Arc<[u32]>> {
        self.block_offsets.get()
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// The function's interned name.
    pub fn symbol(&self) -> Symbol {
        self.name
    }

    /// The function's id within its module.
    pub fn id(&self) -> FuncId {
        self.id
    }

    /// Number of formal arguments.
    pub fn arg_count(&self) -> u8 {
        self.args
    }

    /// The function's attributes.
    pub fn attrs(&self) -> FnAttrs {
        self.attrs
    }

    /// Mutable access to the attributes.
    pub fn attrs_mut(&mut self) -> &mut FnAttrs {
        self.invalidate();
        &mut self.attrs
    }

    /// Stack frame size in bytes.
    pub fn frame_bytes(&self) -> u32 {
        self.frame_bytes
    }

    /// Sets the stack frame size (inlining grows the caller's frame).
    pub fn set_frame_bytes(&mut self, bytes: u32) {
        self.invalidate();
        self.frame_bytes = bytes;
    }

    /// Number of basic blocks; block ids are `0..num_blocks()`, id 0 is the
    /// entry block.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Returns a borrowed view of the block with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> BlockRef<'_> {
        let m = &self.blocks[id.index()];
        BlockRef {
            insts: &self.insts[m.start as usize..(m.start + m.len) as usize],
            term: &m.term,
        }
    }

    /// The instructions of one block, as a slice of the pool.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn block_insts(&self, id: BlockId) -> &[Inst] {
        let m = &self.blocks[id.index()];
        &self.insts[m.start as usize..(m.start + m.len) as usize]
    }

    /// Mutable access to one block's instructions, in place. The block
    /// cannot grow or shrink through this — use the structural editors or
    /// [`set_blocks`](Function::set_blocks) for that.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn block_insts_mut(&mut self, id: BlockId) -> &mut [Inst] {
        self.invalidate();
        let m = &self.blocks[id.index()];
        &mut self.insts[m.start as usize..(m.start + m.len) as usize]
    }

    /// The terminator of one block.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn term(&self, id: BlockId) -> &Terminator {
        &self.blocks[id.index()].term
    }

    /// Mutable access to one block's terminator (transform passes only —
    /// keep the CFG consistent and re-verify the module afterwards).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn term_mut(&mut self, id: BlockId) -> &mut Terminator {
        self.invalidate();
        &mut self.blocks[id.index()].term
    }

    /// Iterates over every block's terminator in block order.
    pub fn terms(&self) -> impl Iterator<Item = &Terminator> {
        self.blocks.iter().map(|m| &m.term)
    }

    /// Mutably iterates over every block's terminator in block order
    /// (transform passes only — keep the CFG consistent).
    pub fn terms_mut(&mut self) -> impl Iterator<Item = &mut Terminator> {
        self.invalidate();
        self.blocks.iter_mut().map(|m| &mut m.term)
    }

    /// Iterates over `(BlockId, BlockRef)` pairs in block order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, BlockRef<'_>)> {
        self.blocks.iter().enumerate().map(|(i, m)| {
            (
                BlockId::from_raw(i as u32),
                BlockRef {
                    insts: &self.insts[m.start as usize..(m.start + m.len) as usize],
                    term: &m.term,
                },
            )
        })
    }

    /// The **raw instruction pool**, including tombstones of deleted
    /// instructions (dead `Op(Mov)` slots unreachable from any block).
    ///
    /// This is the fastest way to sweep a whole body, but only valid for
    /// scans where an extra dead `Op` cannot change the answer — filtering
    /// for calls, resolves, or guards is safe; counting or costing ops is
    /// not (use [`iter_insts`](Function::iter_insts)).
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Mutable access to the raw instruction pool (same tombstone caveat as
    /// [`insts`](Function::insts)); in-place rewrites only.
    pub fn insts_mut(&mut self) -> &mut [Inst] {
        self.invalidate();
        &mut self.insts
    }

    /// Iterates over every *live* instruction in canonical block order.
    pub fn iter_insts(&self) -> impl Iterator<Item = &Inst> {
        self.blocks
            .iter()
            .flat_map(|m| &self.insts[m.start as usize..(m.start + m.len) as usize])
    }

    /// Finds the first direct call with id `site` in canonical block
    /// order, returning `(block, index, callee, args)`.
    ///
    /// One flat sweep of the raw pool finds the occurrences (a tombstone
    /// is a plain `Op` and cannot match; repeated inlining of one callee
    /// can duplicate a site, so there may be several), then each hit is
    /// mapped to its block and the earliest in block order wins — the
    /// same answer a nested block walk would give, without paying the
    /// per-block iteration overhead on the hot inline path.
    pub fn find_call(&self, site: SiteId) -> Option<(BlockId, usize, FuncId, u8)> {
        let mut best: Option<(usize, usize, FuncId, u8)> = None;
        for (pos, inst) in self.insts.iter().enumerate() {
            let Inst::Call {
                site: s,
                callee,
                args,
            } = inst
            else {
                continue;
            };
            if *s != site {
                continue;
            }
            let hit = self.blocks.iter().enumerate().find_map(|(bi, m)| {
                let (start, end) = (m.start as usize, (m.start + m.len) as usize);
                (start..end).contains(&pos).then(|| (bi, pos - start))
            });
            if let Some((bi, idx)) = hit {
                if best.is_none_or(|(bb, bidx, _, _)| (bi, idx) < (bb, bidx)) {
                    best = Some((bi, idx, *callee, *args));
                }
            }
        }
        best.map(|(bi, idx, callee, args)| (BlockId::from_raw(bi as u32), idx, callee, args))
    }

    /// Number of static return sites (blocks terminated by `Return`).
    pub fn return_sites(&self) -> usize {
        self.blocks.iter().filter(|m| m.term.is_return()).count()
    }

    /// Total live instruction count (excluding terminators and tombstones).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|m| m.len as usize).sum()
    }

    /// Raw pool length, counting tombstones (diagnostics/tests).
    pub fn pool_len(&self) -> usize {
        self.insts.len()
    }

    // ---- structural editors ------------------------------------------------

    /// Appends a new block holding `insts` and `term`; returns its id.
    /// The instructions land contiguously at the end of the pool.
    pub fn append_block(&mut self, insts: Vec<Inst>, term: Terminator) -> BlockId {
        self.invalidate();
        let id = BlockId::from_raw(self.blocks.len() as u32);
        let start = self.insts.len() as u32;
        let len = insts.len() as u32;
        self.insts.extend(insts);
        self.blocks.push(BlockMeta { start, len, term });
        id
    }

    /// Splits block `bid` before instruction index `at`: `bid` keeps
    /// `[0, at)` and is re-terminated with `first_term`; a **new block**
    /// (the returned id, always `num_blocks()` before the call) takes the
    /// rest and `bid`'s old terminator. With `drop_split_inst` the
    /// instruction *at* `at` is deleted (tombstoned) instead of moving to
    /// the new block — how a call instruction vanishes when its site is
    /// inlined or promoted.
    ///
    /// Pure range arithmetic: no instruction is copied or moved.
    ///
    /// # Panics
    /// Panics if `bid` is out of range or `at` (+1 when dropping) exceeds
    /// the block's length.
    pub fn split_block(
        &mut self,
        bid: BlockId,
        at: usize,
        drop_split_inst: bool,
        first_term: Terminator,
    ) -> BlockId {
        self.invalidate();
        let skip = usize::from(drop_split_inst);
        let m = &mut self.blocks[bid.index()];
        assert!(at + skip <= m.len as usize, "split point outside block");
        let tail_start = m.start + (at + skip) as u32;
        let tail_len = m.len - (at + skip) as u32;
        m.len = at as u32;
        let old_term = std::mem::replace(&mut m.term, first_term);
        if drop_split_inst {
            self.insts[(tail_start - 1) as usize] = TOMBSTONE;
        }
        let id = BlockId::from_raw(self.blocks.len() as u32);
        self.blocks.push(BlockMeta {
            start: tail_start,
            len: tail_len,
            term: old_term,
        });
        id
    }

    /// Splices a copy of `donor`'s body into this function: every donor
    /// block is appended (instructions land in one contiguous pool run),
    /// successor ids are offset, and donor `Return`s become jumps to
    /// `ret_to`. Returns the id of the copied entry block.
    ///
    /// This is the inliner's mechanical core: one `extend_from_slice` per
    /// donor block plus block-table bookkeeping.
    pub fn splice_body(&mut self, donor: &Function, ret_to: BlockId) -> BlockId {
        self.invalidate();
        let offset = self.blocks.len() as u32;
        self.insts.reserve(donor.inst_count());
        self.blocks.reserve(donor.num_blocks());
        for m in &donor.blocks {
            let start = self.insts.len() as u32;
            self.insts
                .extend_from_slice(&donor.insts[m.start as usize..(m.start + m.len) as usize]);
            let term = if m.term.is_return() {
                Terminator::Jump { target: ret_to }
            } else {
                let mut t = m.term.clone();
                t.map_successors(|s| BlockId::from_raw(s.index() as u32 + offset));
                t
            };
            self.blocks.push(BlockMeta {
                start,
                len: m.len,
                term,
            });
        }
        BlockId::from_raw(offset)
    }

    /// Inserts `inst` at position `idx` of block `bid`, repacking the pools
    /// (O(body); for occasional surgical edits — fault injection, hardening
    /// instrumentation — not hot paths).
    ///
    /// # Panics
    /// Panics if `bid` is out of range or `idx > len`.
    pub fn insert_inst(&mut self, bid: BlockId, idx: usize, inst: Inst) {
        let mut blocks = self.to_blocks();
        blocks[bid.index()].insts.insert(idx, inst);
        self.set_blocks(blocks);
    }

    /// Removes and returns the instruction at position `idx` of block `bid`,
    /// repacking the pools (same cost note as
    /// [`insert_inst`](Function::insert_inst)).
    ///
    /// # Panics
    /// Panics if `bid` or `idx` is out of range.
    pub fn remove_inst(&mut self, bid: BlockId, idx: usize) -> Inst {
        let mut blocks = self.to_blocks();
        let inst = blocks[bid.index()].insts.remove(idx);
        self.set_blocks(blocks);
        inst
    }

    /// Materializes every block into the owned edit representation.
    pub fn to_blocks(&self) -> Vec<Block> {
        self.iter_blocks().map(|(_, b)| b.to_block()).collect()
    }

    /// Replaces the whole body, re-packing `blocks` into fresh, contiguous,
    /// tombstone-free pools.
    pub fn set_blocks(&mut self, blocks: Vec<Block>) {
        self.invalidate();
        self.insts.clear();
        self.blocks.clear();
        self.insts
            .reserve(blocks.iter().map(|b| b.insts.len()).sum());
        self.blocks.reserve(blocks.len());
        for b in blocks {
            let start = self.insts.len() as u32;
            let len = b.insts.len() as u32;
            self.insts.extend(b.insts);
            self.blocks.push(BlockMeta {
                start,
                len,
                term: b.term,
            });
        }
    }
}

/// Canonical equality: block order, ignoring tombstone layout.
impl PartialEq for Function {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.id == other.id
            && self.args == other.args
            && self.attrs == other.attrs
            && self.frame_bytes == other.frame_bytes
            && self.blocks.len() == other.blocks.len()
            && self
                .iter_blocks()
                .zip(other.iter_blocks())
                .all(|((_, a), (_, b))| a.insts() == b.insts() && a.term() == b.term())
    }
}

impl Eq for Function {}

/// The wire form: owned blocks, exactly the pre-pool field shape, so
/// serialized modules are canonical (no tombstones) and stable.
#[derive(Serialize, Deserialize)]
struct FunctionWire {
    name: Symbol,
    id: FuncId,
    args: u8,
    blocks: Vec<Block>,
    attrs: FnAttrs,
    frame_bytes: u32,
}

impl Serialize for Function {
    fn to_value(&self) -> serde::Value {
        FunctionWire {
            name: self.name,
            id: self.id,
            args: self.args,
            blocks: self.to_blocks(),
            attrs: self.attrs,
            frame_bytes: self.frame_bytes,
        }
        .to_value()
    }
}

impl Deserialize for Function {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let w = FunctionWire::from_value(v)?;
        let mut f = Function {
            name: w.name,
            id: w.id,
            args: w.args,
            attrs: w.attrs,
            frame_bytes: w.frame_bytes,
            insts: Vec::new(),
            blocks: Vec::new(),
            verified_ok: AtomicU32::new(0),
            cached_bytes: AtomicU64::new(u64::MAX),
            block_offsets: OnceLock::new(),
        };
        f.set_blocks(w.blocks);
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{OpKind, Terminator};

    fn two_block_function() -> Function {
        let b0 = Block::new(
            vec![Inst::Op(OpKind::Alu)],
            Terminator::Jump {
                target: BlockId::from_raw(1),
            },
        );
        let b1 = Block::new(
            vec![Inst::Call {
                site: SiteId::from_raw(1),
                callee: FuncId::from_raw(0),
                args: 0,
            }],
            Terminator::Return,
        );
        Function::new("f".into(), 0, vec![b0, b1], FnAttrs::default(), 64)
    }

    #[test]
    fn block_call_sites_are_listed() {
        let f = two_block_function();
        let sites: Vec<_> = f.block(BlockId::from_raw(1)).call_sites().collect();
        assert_eq!(sites, vec![SiteId::from_raw(1)]);
    }

    #[test]
    fn return_site_count() {
        let f = two_block_function();
        assert_eq!(f.return_sites(), 1);
        assert_eq!(f.inst_count(), 2);
    }

    #[test]
    fn attrs_default_to_all_false() {
        let a = FnAttrs::default();
        assert!(!a.noinline && !a.optnone && !a.inline_asm && !a.boot_only);
    }

    #[test]
    fn pools_pack_blocks_contiguously() {
        let f = two_block_function();
        assert_eq!(f.pool_len(), 2, "no tombstones after a fresh pack");
        assert_eq!(f.num_blocks(), 2);
        assert_eq!(f.block_insts(BlockId::from_raw(0)).len(), 1);
        let all: Vec<_> = f.iter_insts().collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn split_block_is_pure_range_arithmetic() {
        let blocks = vec![Block::new(
            vec![
                Inst::Op(OpKind::Alu),
                Inst::Call {
                    site: SiteId::from_raw(9),
                    callee: FuncId::from_raw(0),
                    args: 0,
                },
                Inst::Op(OpKind::Load),
            ],
            Terminator::Return,
        )];
        let mut f = Function::new("s".into(), 0, blocks, FnAttrs::default(), 64);
        let pool_before = f.pool_len();
        let cont = f.split_block(
            BlockId::ENTRY,
            1,
            true,
            Terminator::Jump {
                target: BlockId::from_raw(1),
            },
        );
        assert_eq!(cont, BlockId::from_raw(1));
        assert_eq!(f.pool_len(), pool_before, "no instruction copied");
        assert_eq!(f.block_insts(BlockId::ENTRY), &[Inst::Op(OpKind::Alu)]);
        assert_eq!(f.block_insts(cont), &[Inst::Op(OpKind::Load)]);
        assert_eq!(f.inst_count(), 2, "the dropped call is dead");
        assert!(f.term(cont).is_return());
        // The tombstone is invisible to canonical equality.
        let repacked = {
            let mut g = f.clone();
            g.set_blocks(g.to_blocks());
            g
        };
        assert_eq!(f, repacked);
        assert!(repacked.pool_len() < f.pool_len());
    }

    #[test]
    fn splice_body_redirects_returns() {
        let donor = two_block_function();
        let mut f = Function::new(
            "host".into(),
            0,
            vec![Block::new(vec![], Terminator::Return)],
            FnAttrs::default(),
            64,
        );
        let entry = f.splice_body(&donor, BlockId::ENTRY);
        assert_eq!(entry, BlockId::from_raw(1));
        assert_eq!(f.num_blocks(), 3);
        // Donor's internal jump offset by 1; its return now jumps to bb0.
        assert_eq!(
            f.term(BlockId::from_raw(1)),
            &Terminator::Jump {
                target: BlockId::from_raw(2)
            }
        );
        assert_eq!(
            f.term(BlockId::from_raw(2)),
            &Terminator::Jump {
                target: BlockId::ENTRY
            }
        );
    }

    #[test]
    fn insert_and_remove_repack() {
        let mut f = two_block_function();
        f.insert_inst(BlockId::ENTRY, 0, Inst::Op(OpKind::Fence));
        assert_eq!(f.block_insts(BlockId::ENTRY)[0], Inst::Op(OpKind::Fence));
        assert_eq!(f.inst_count(), 3);
        let removed = f.remove_inst(BlockId::ENTRY, 0);
        assert_eq!(removed, Inst::Op(OpKind::Fence));
        assert_eq!(f, two_block_function());
    }
}
