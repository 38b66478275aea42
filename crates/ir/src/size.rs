//! Code-size and complexity models.
//!
//! Two related but distinct measures:
//!
//! * **bytes** — the model's machine-code footprint, used for the image-size
//!   experiments (Table 12) and the simulator's i-cache layout;
//! * **inline cost** — LLVM's `InlineCost`-style complexity heuristic, which
//!   the paper describes exactly in §5.2: "Most instructions incur a standard
//!   cost [of 5] … a nested call instruction is assigned cost
//!   `5 + 5 * num_args`". PIBE's Rules 2 and 3 threshold on this measure.

use crate::func::Function;
use crate::ids::BlockId;
use crate::inst::{Inst, OpKind, Terminator};
use std::sync::Arc;

/// LLVM's standard per-instruction cost on x86 (§5.2: "perhaps used as an
/// approximation for the average binary instruction size").
pub const STANDARD_INST_COST: u32 = 5;

/// Inline cost of one instruction.
pub fn inst_cost(inst: &Inst) -> u32 {
    match inst {
        Inst::Op(_) => STANDARD_INST_COST,
        // §5.2: "a nested call instruction is assigned cost 5 + 5 * num_args"
        Inst::Call { args, .. } | Inst::CallIndirect { args, .. } => {
            STANDARD_INST_COST + STANDARD_INST_COST * u32::from(*args)
        }
        Inst::ResolveTarget { .. } => STANDARD_INST_COST,
    }
}

/// Inline cost of a terminator.
pub fn term_cost(term: &Terminator) -> u32 {
    match term {
        // A return or unconditional jump is one instruction.
        Terminator::Return | Terminator::Jump { .. } => STANDARD_INST_COST,
        Terminator::Branch { .. } => STANDARD_INST_COST,
        // A compare-chain switch costs one cmp+jcc pair per case; a
        // jump-table switch costs the bounds check plus the indexed jump.
        Terminator::Switch {
            cases, via_table, ..
        } => {
            if *via_table {
                2 * STANDARD_INST_COST
            } else {
                (cases.len() as u32).max(1) * 2 * STANDARD_INST_COST
            }
        }
    }
}

/// Inline cost ("complexity") of a whole function — the quantity PIBE's
/// Rule 2 (caller budget, threshold 12 000) and Rule 3 (callee impact,
/// threshold 3 000) compare against.
pub fn function_cost(f: &Function) -> u32 {
    // Block-ordered walk: only live instructions count (never the raw pool,
    // which may carry tombstones of deleted calls).
    f.iter_insts().map(inst_cost).sum::<u32>() + f.terms().map(term_cost).sum::<u32>()
}

/// Exact change in a caller's [`function_cost`] from inlining a direct
/// call that passed `call_args` arguments to a callee of cost
/// `callee_cost`.
///
/// The splice adds the callee's whole body (its `Return` terminators
/// become `Jump`s — same cost), removes the call instruction
/// (`5 + 5 * call_args`), and adds one `Jump` where the calling block was
/// split, so the net change is `callee_cost - 5 * call_args` — negative
/// when a tiny callee is reached through a long argument list. The
/// inliner's incremental caller-cost cache applies this delta instead of
/// re-walking the merged body.
pub fn inline_cost_delta(callee_cost: u32, call_args: u8) -> i64 {
    i64::from(callee_cost) - i64::from(STANDARD_INST_COST) * i64::from(call_args)
}

/// Model machine-code bytes of one instruction.
pub fn inst_bytes(inst: &Inst) -> u32 {
    match inst {
        Inst::Op(OpKind::Fence) => 3,
        Inst::Op(_) => 4,
        // call rel32 = 5 bytes, plus one mov per argument.
        Inst::Call { args, .. } => 5 + 4 * u32::from(*args),
        // call *%reg = 3 bytes, plus arg moves.
        Inst::CallIndirect { args, .. } => 3 + 4 * u32::from(*args),
        Inst::ResolveTarget { .. } => 4,
    }
}

/// Model machine-code bytes of a terminator.
pub fn term_bytes(term: &Terminator) -> u32 {
    match term {
        Terminator::Jump { .. } => 5,
        Terminator::Branch { .. } => 8, // cmp/test + jcc
        Terminator::Switch {
            cases, via_table, ..
        } => {
            if *via_table {
                // bounds check + indexed jump + table entries (4B each).
                12 + 4 * cases.len() as u32
            } else {
                8 * (cases.len() as u32).max(1)
            }
        }
        Terminator::Return => 1,
    }
}

/// Model machine-code bytes of a function (blocks laid out consecutively).
///
/// Memoized on the function: copy-on-write bodies are size-summed by every
/// pipeline stage report, so an unchanged body answers from its cache and
/// any `&mut` access recomputes on next call.
pub fn function_bytes(f: &Function) -> u64 {
    if let Some(b) = f.cached_bytes() {
        return b;
    }
    let bytes = f.iter_blocks().map(|(_, b)| block_bytes_of(b) as u64).sum();
    f.set_cached_bytes(bytes);
    bytes
}

fn block_bytes_of(b: crate::func::BlockRef<'_>) -> u32 {
    b.insts().iter().map(inst_bytes).sum::<u32>() + term_bytes(b.term())
}

/// The block byte offsets of `f` in block order: `num_blocks + 1` prefix
/// sums, so block `b` spans `offsets[b]..offsets[b + 1]` and the last entry
/// is the body's size.
///
/// Memoized on the function like [`function_bytes`]: a body shared by many
/// copy-on-write images is walked once, and every [`Layout`] of those
/// images holds the same `Arc`.
pub fn block_offsets(f: &Function) -> Arc<[u32]> {
    Arc::clone(f.block_offsets_with(|| block_offsets_uncached(f)))
}

fn block_offsets_uncached(f: &Function) -> Arc<[u32]> {
    let mut offsets = Vec::with_capacity(f.num_blocks() + 1);
    let mut off: u32 = 0;
    offsets.push(off);
    for (_, b) in f.iter_blocks() {
        off += block_bytes_of(b);
        offsets.push(off);
    }
    offsets.into()
}

/// A linear code layout for a module: every function gets a base address and
/// every block an offset, so the simulator's i-cache can map executed code to
/// cache lines. Functions are laid out in id order, 16-byte aligned, mirroring
/// how a linker lays out sections.
///
/// Building one costs O(#functions): the block offsets come from each
/// function's memo ([`block_offsets`]), so only bodies changed since they
/// were last laid out are walked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    func_base: Vec<u64>,
    block_offsets: Vec<Arc<[u32]>>, // per function, see `block_offsets`
    total: u64,
}

impl Layout {
    /// Computes the layout of `module`.
    pub fn of(module: &crate::Module) -> Self {
        let mut func_base = Vec::with_capacity(module.len());
        let mut offsets = Vec::with_capacity(module.len());
        let mut cursor: u64 = 0;
        for f in module.functions() {
            cursor = (cursor + 15) & !15;
            func_base.push(cursor);
            let offs = block_offsets(f);
            cursor += u64::from(offs[offs.len() - 1]);
            offsets.push(offs);
        }
        Layout {
            func_base,
            block_offsets: offsets,
            total: cursor,
        }
    }

    /// Base address of a function.
    pub fn func_base(&self, f: crate::FuncId) -> u64 {
        self.func_base[f.index()]
    }

    /// Address range `(start, len_bytes)` of a block.
    ///
    /// The simulator asks on every block it enters, from another crate:
    /// `#[inline]` keeps that a few loads.
    #[inline]
    pub fn block_range(&self, f: crate::FuncId, b: BlockId) -> (u64, u32) {
        let offs = &self.block_offsets[f.index()][b.index()..b.index() + 2];
        (
            self.func_base[f.index()] + u64::from(offs[0]),
            offs[1] - offs[0],
        )
    }

    /// Total laid-out code bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ids::{FuncId, SiteId};
    use crate::Module;

    #[test]
    fn call_cost_follows_paper_formula() {
        let call = Inst::Call {
            site: SiteId::from_raw(0),
            callee: FuncId::from_raw(0),
            args: 3,
        };
        assert_eq!(inst_cost(&call), 5 + 5 * 3);
        assert_eq!(inst_cost(&Inst::Op(OpKind::Alu)), STANDARD_INST_COST);
    }

    #[test]
    fn function_cost_sums_blocks_and_terminators() {
        let mut b = FunctionBuilder::new("f", 0);
        b.ops(OpKind::Alu, 4); // 4*5 = 20
        b.ret(); // 5
        let f = b.build();
        assert_eq!(function_cost(&f), 25);
    }

    #[test]
    fn layout_aligns_functions_and_is_monotone() {
        let mut m = Module::new("m");
        for i in 0..3 {
            let mut b = FunctionBuilder::new(format!("f{i}"), 0);
            b.ops(OpKind::Alu, i + 1);
            b.ret();
            m.add_function(b.build());
        }
        let layout = Layout::of(&m);
        let mut prev = None;
        for id in m.func_ids() {
            let base = layout.func_base(id);
            assert_eq!(base % 16, 0, "function base must be 16-aligned");
            if let Some(p) = prev {
                assert!(base > p);
            }
            prev = Some(base);
        }
        assert!(layout.total_bytes() >= m.code_bytes());
    }

    #[test]
    fn block_ranges_do_not_overlap_within_function() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", 0);
        let bb1 = b.new_block();
        b.ops(OpKind::Alu, 2);
        b.jump(bb1);
        b.switch_to(bb1);
        b.ops(OpKind::Load, 3);
        b.ret();
        let f = m.add_function(b.build());
        let layout = Layout::of(&m);
        let (a0, l0) = layout.block_range(f, BlockId::from_raw(0));
        let (a1, _l1) = layout.block_range(f, BlockId::from_raw(1));
        assert_eq!(a0 + u64::from(l0), a1);
    }

    #[test]
    fn jump_table_switch_is_smaller_than_long_cmp_chain() {
        use crate::inst::Terminator;
        let cases: Vec<BlockId> = (0..8).map(BlockId::from_raw).collect();
        let table = Terminator::Switch {
            weights: vec![1; 8],
            cases: cases.clone(),
            default_weight: 1,
            default: BlockId::from_raw(8),
            via_table: true,
        };
        let chain = Terminator::Switch {
            weights: vec![1; 8],
            cases,
            default_weight: 1,
            default: BlockId::from_raw(8),
            via_table: false,
        };
        assert!(term_bytes(&table) < term_bytes(&chain));
        assert!(term_cost(&table) < term_cost(&chain));
    }

    /// `function_bytes` is memoized per body, and every `&mut` accessor
    /// drops the memo — growing a function must be reflected immediately.
    #[test]
    fn byte_cache_invalidated_by_mutation() {
        use crate::inst::{Inst, OpKind};
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", 0);
        b.op(OpKind::Alu);
        b.ret();
        let id = m.add_function(b.build());

        let before = function_bytes(m.function(id));
        assert_eq!(before, function_bytes(m.function(id)), "memo is stable");
        m.function_mut(id)
            .insert_inst(BlockId::ENTRY, 0, Inst::Op(OpKind::Load));
        let after = function_bytes(m.function(id));
        assert_eq!(
            after,
            before + u64::from(inst_bytes(&Inst::Op(OpKind::Load)))
        );
    }

    /// A module exercising every terminator kind and a direct call.
    fn memo_module() -> Module {
        use crate::inst::Cond;
        let mut m = Module::new("m");
        let mut leaf = FunctionBuilder::new("leaf", 1);
        leaf.ops(OpKind::Alu, 2);
        leaf.ret();
        let leaf = m.add_function(leaf.build());
        let mut b = FunctionBuilder::new("f", 0);
        let (bb1, bb2, bb3) = (b.new_block(), b.new_block(), b.new_block());
        b.ops(OpKind::Alu, 2);
        b.call(SiteId::from_raw(0), leaf, 2);
        b.op(OpKind::Load);
        b.branch(Cond::Random { ptaken_milli: 500 }, bb1, bb2);
        b.switch_to(bb1);
        b.op(OpKind::Store);
        b.switch(vec![1, 2], vec![bb2, bb3], 1, bb3, true);
        b.switch_to(bb2);
        b.ops(OpKind::Load, 3);
        b.jump(bb3);
        b.switch_to(bb3);
        b.ret();
        m.add_function(b.build());
        m
    }

    /// The layout of `m` recomputed from scratch: every body is copied
    /// out of the shared `Arc` and its memos dropped before laying out.
    fn layout_from_scratch(m: &Module) -> Layout {
        let mut cold = m.clone();
        for id in cold.func_ids().collect::<Vec<_>>() {
            cold.function_mut(id).attrs_mut();
            assert!(cold.function(id).cached_block_offsets().is_none());
        }
        Layout::of(&cold)
    }

    /// Every mutating accessor drops the layout memo: after warming it and
    /// mutating one body, the memoized layout equals a recomputation from
    /// scratch (and moves whenever the mutation changed the body's bytes).
    #[test]
    fn layout_memo_is_invalidated_by_every_mutating_accessor() {
        use crate::func::{Block, FnAttrs};
        use crate::inst::Terminator;
        let donor = memo_module().function(FuncId::from_raw(1)).clone();
        let fence = Inst::Op(OpKind::Fence);
        type Edit = Box<dyn Fn(&mut Function)>;
        let edits: Vec<(&str, bool, Edit)> = vec![
            (
                "insert_inst",
                true,
                Box::new(move |f| f.insert_inst(BlockId::ENTRY, 0, fence.clone())),
            ),
            (
                "remove_inst",
                true,
                Box::new(|f| {
                    f.remove_inst(BlockId::ENTRY, 0);
                }),
            ),
            (
                "split_block",
                true,
                Box::new(|f| {
                    let next = BlockId::from_raw(f.num_blocks() as u32);
                    f.split_block(BlockId::ENTRY, 1, false, Terminator::Jump { target: next });
                }),
            ),
            (
                "split_block (dropping the call)",
                true,
                Box::new(|f| {
                    let next = BlockId::from_raw(f.num_blocks() as u32);
                    f.split_block(BlockId::ENTRY, 2, true, Terminator::Jump { target: next });
                }),
            ),
            (
                "splice_body",
                true,
                Box::new(move |f| {
                    f.splice_body(&donor, BlockId::ENTRY);
                }),
            ),
            (
                "set_blocks",
                true,
                Box::new(|f| {
                    let mut blocks = f.to_blocks();
                    blocks.push(Block::new(vec![Inst::Op(OpKind::Alu)], Terminator::Return));
                    f.set_blocks(blocks);
                }),
            ),
            (
                "append_block",
                true,
                Box::new(|f| {
                    f.append_block(vec![Inst::Op(OpKind::Alu)], Terminator::Return);
                }),
            ),
            (
                "term_mut",
                true,
                Box::new(|f| *f.term_mut(BlockId::ENTRY) = Terminator::Return),
            ),
            (
                "terms_mut",
                true,
                Box::new(|f| f.terms_mut().for_each(|t| *t = Terminator::Return)),
            ),
            (
                "block_insts_mut",
                true,
                Box::new(|f| f.block_insts_mut(BlockId::ENTRY)[0] = Inst::Op(OpKind::Fence)),
            ),
            (
                "insts_mut",
                true,
                Box::new(|f| f.insts_mut()[0] = Inst::Op(OpKind::Fence)),
            ),
            (
                "attrs_mut",
                false,
                Box::new(|f| {
                    *f.attrs_mut() = FnAttrs {
                        noinline: true,
                        ..FnAttrs::default()
                    }
                }),
            ),
            (
                "set_frame_bytes",
                false,
                Box::new(|f| f.set_frame_bytes(4096)),
            ),
        ];
        let f = FuncId::from_raw(1);
        for (name, moves, edit) in edits {
            let mut m = memo_module();
            let before = Layout::of(&m);
            assert!(
                m.function(f).cached_block_offsets().is_some(),
                "{name}: memo warm"
            );
            edit(m.function_mut(f));
            assert!(
                m.function(f).cached_block_offsets().is_none(),
                "{name}: memo dropped"
            );
            let after = Layout::of(&m);
            assert_eq!(after, layout_from_scratch(&m), "{name}: stale layout");
            assert_eq!(after != before, moves, "{name}: layout moved = {moves}");
        }
    }

    /// The memo survives `Clone`, is shared between modules that share an
    /// `Arc<Function>`, and starts cold in a deserialized body.
    #[test]
    fn layout_memo_is_shared_and_starts_cold() {
        let m = memo_module();
        let f = FuncId::from_raw(1);
        assert!(m.function(f).cached_block_offsets().is_none(), "built cold");
        let first = Layout::of(&m);
        assert_eq!(first, layout_from_scratch(&m));

        let copy = m.function(f).clone();
        assert!(Arc::ptr_eq(
            copy.cached_block_offsets().expect("clone keeps the memo"),
            &first.block_offsets[f.index()],
        ));

        let sibling = m.clone();
        let second = Layout::of(&sibling);
        for id in m.func_ids() {
            assert!(Arc::ptr_eq(
                &first.block_offsets[id.index()],
                &second.block_offsets[id.index()],
            ));
        }

        let json = serde_json::to_string(m.function(f)).expect("function serializes");
        let back: Function = serde_json::from_str(&json).expect("function deserializes");
        assert!(back.cached_block_offsets().is_none(), "deserialized cold");
        assert_eq!(block_offsets(&back), first.block_offsets[f.index()]);
    }
}
