//! The NkScript bytecode instruction set and compiled-program containers.
//!
//! [`crate::compile()`] lowers the AST into a [`CompiledFunction`] per function
//! literal (plus one for the program's top level): a flat instruction stream
//! over a small constant pool, with local variables resolved to frame slots
//! whenever the function contains no nested function (so no closure can
//! observe its scope).  [`crate::vm::Vm`] executes the result on a value
//! stack while preserving the tree-walking interpreter's sandbox contract —
//! fuel per instruction, heap accounting, the asynchronous kill flag, and the
//! same [`crate::ScriptError`] surface.
//!
//! The ISA is deliberately plain: a Rust enum with small operands, matched in
//! a dispatch loop.  The speedup over the interpreter comes from doing name
//! resolution, constant interning, and control-flow layout once at compile
//! time instead of on every execution.
//!
//! The compiler lowers to *primitive* instructions and then fuses the common
//! numeric and store sequences into *superinstructions* (the last group of
//! [`Op`]).  A superinstruction does exactly what the primitives it replaced
//! did and charges their fuel ([`Op::weight`]), so fusing changes how fast a
//! script runs and nothing else about it.

use crate::ast::{BinaryOp, FunctionLiteral};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A constant-pool entry.
#[derive(Debug, Clone)]
pub enum Const {
    /// A numeric literal.
    Num(f64),
    /// A string literal, property name, or identifier name (interned once at
    /// compile time; pushing it at runtime is a reference-count bump).
    Str(Arc<str>),
}

/// One bytecode instruction.
///
/// Stack effects are noted as `pops -> pushes`.  `u16` operands index the
/// owning function's constant pool ([`Op::Num`], [`Op::Str`], name-carrying
/// ops) or its slot frame; `u32` operands are absolute instruction indices
/// within the owning function's code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    // ---- constants and simple literals ----
    /// Push numeric constant `k`. `0 -> 1`
    Num(u16),
    /// Push string constant `k`. `0 -> 1`
    Str(u16),
    /// Push `true`. `0 -> 1`
    True,
    /// Push `false`. `0 -> 1`
    False,
    /// Push `null`. `0 -> 1`
    Null,
    /// Push `undefined`. `0 -> 1`
    Undef,

    // ---- stack shuffling ----
    /// Discard the top of stack. `1 -> 0`
    Pop,
    /// Duplicate the top of stack. `1 -> 2`
    Dup,
    /// Swap the two topmost values. `2 -> 2`
    Swap,

    // ---- variables ----
    /// Push the value of frame slot `i`. `0 -> 1`
    LoadSlot(u16),
    /// Pop into frame slot `i`. `1 -> 0`
    StoreSlot(u16),
    /// Pop into frame slot `i` (declaration; identical effect to
    /// [`Op::StoreSlot`] but kept distinct for disassembly clarity). `1 -> 0`
    DeclSlot(u16),
    /// Look name `k` up through the frame's scope chain; reference error when
    /// absent. `0 -> 1`
    LoadName(u16),
    /// Like [`Op::LoadName`] but missing names yield `undefined` (compound
    /// assignment reads through `eval_target`). `0 -> 1`
    LoadNameSoft(u16),
    /// Pop and assign name `k` through the scope chain, declaring at the
    /// global root on miss (sloppy assignment). `1 -> 0`
    StoreName(u16),
    /// Pop and declare name `k` in the innermost scope. `1 -> 0`
    DeclName(u16),
    /// Push the `typeof` string for name `k` without throwing on a missing
    /// binding. `0 -> 1`
    TypeofName(u16),
    /// Enter a fresh child scope (dynamically scoped functions only).
    PushScope,
    /// Leave the innermost scope.
    PopScope,

    // ---- composite literals ----
    /// Pop `n` elements, push a new array of them, and account its
    /// allocation. `n -> 1`
    MakeArray(u16),
    /// Push a new empty object (not yet accounted). `0 -> 1`
    MakeObject,
    /// Pop a value and set it as property `k` of the object at the (new) top
    /// of stack, which stays. `2 -> 1`
    InitProp(u16),
    /// Charge the memory accounting for the value at the top of stack
    /// (object literals are accounted after their properties exist, matching
    /// the interpreter). `1 -> 1`
    AccountTop,
    /// Push a closure over function-table entry `f`, capturing the current
    /// scope. `0 -> 1`
    MakeClosure(u16),

    // ---- property access ----
    /// Pop an object, push its property `k`. `1 -> 1`
    GetProp(u16),
    /// Pop an object then a value, set property `k`, leaving the value.
    /// `2 -> 1`
    SetProp(u16),
    /// Pop an index then an object, push the indexed property. `2 -> 1`
    GetIndex,
    /// Pop an index, an object, then a value; set the property, leaving the
    /// value. `3 -> 1`
    SetIndex,
    /// Pop an object, delete property `k`, push `true`. `1 -> 1`
    DelProp(u16),
    /// Pop an index then an object, delete that property, push `true`.
    /// `2 -> 1`
    DelIndex,

    // ---- operators ----
    /// Pop right then left, push `left op right`. `2 -> 1`
    Bin(BinaryOp),
    /// Arithmetic negation. `1 -> 1`
    Neg,
    /// Numeric coercion (unary plus). `1 -> 1`
    Plus,
    /// Logical not. `1 -> 1`
    Not,
    /// Replace the top of stack with its `typeof` string. `1 -> 1`
    Typeof,
    /// Replace the top of stack with its numeric coercion. `1 -> 1`
    ToNumber,

    // ---- control flow ----
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when falsy. `1 -> 0`
    JumpIfFalse(u32),
    /// Pop; jump when truthy. `1 -> 0`
    JumpIfTrue(u32),
    /// Enter a loop: records the unwind levels for `break` / `continue`.
    LoopEnter {
        /// Jump target for `break` (past the loop's cleanup).
        break_ip: u32,
        /// Jump target for `continue` (the condition / update / next-key).
        continue_ip: u32,
        /// The loop pushes a header scope (`for` init scope, `for-in` loop
        /// scope) that `continue` must keep but `break` must drop.
        keeps_header_scope: bool,
        /// The loop owns a live `for-in` iterator that `continue` keeps.
        keeps_iter: bool,
    },
    /// Leave a loop normally (pops the control entry).
    LoopExit,
    /// Unwind to the innermost loop's break target, routing through enclosing
    /// `finally` blocks; a type error outside any loop.
    Break,
    /// Unwind to the innermost loop's continue target, routing through
    /// enclosing `finally` blocks; a type error outside any loop.
    Continue,
    /// Pop a value and push a `for-in` iterator over its keys onto the
    /// frame's iterator stack. `1 -> 0`
    ForInInit,
    /// Advance the innermost iterator: push the next key as a string, or pop
    /// the iterator and jump when exhausted. `0 -> 1` (or jump)
    ForInNext(u32),

    // ---- calls ----
    /// Pop the callee then `argc` arguments; call with `this = undefined`.
    /// `argc + 1 -> 1`
    Call(u16),
    /// Pop the receiver then `argc` arguments; call method `name` with the
    /// receiver as `this`, falling back to built-in methods. `argc + 1 -> 1`
    CallMethod {
        /// Constant-pool index of the method name.
        name: u16,
        /// Number of arguments already on the stack.
        argc: u16,
    },
    /// Pop a computed method name, the receiver, then `argc` arguments.
    /// `argc + 2 -> 1`
    CallIndexMethod(u16),
    /// Pop the constructor then `argc` arguments; construct with the class
    /// tag `class` (resolved at compile time from the callee expression).
    /// `argc + 1 -> 1`
    New {
        /// Number of arguments already on the stack.
        argc: u16,
        /// Constant-pool index of the class tag.
        class: u16,
    },
    /// Pop the return value and unwind the frame, running enclosing
    /// `finally` blocks. `1 -> 0`
    Return,
    /// Pop a value and raise it as a thrown script error. `1 -> 0`
    Throw,

    // ---- try / catch / finally ----
    /// Enter a protected region, recording unwind levels.
    TryEnter {
        /// Catch handler entry, or [`NO_CATCH`] when the clause is absent.
        catch_ip: u32,
        /// Finally entry (always present; may be just [`Op::TryExit`]).
        finally_ip: u32,
        /// Instruction index of the region's [`Op::TryExit`].
        exit_ip: u32,
    },
    /// Normal completion of the body or catch clause: latch the pending
    /// outcome and fall into the finally code.
    TryEndBody,
    /// End of the finally code: pop the control entry and apply the pending
    /// outcome (value, error, return, break, or continue).
    TryExit,

    // ---- statement value tracking ----
    /// Pop the top of stack into the frame's last-value register. `1 -> 0`
    StoreLast,
    /// Reset the last-value register to `undefined`.
    SetLastUndef,
    /// Push the last-value register (program epilogue). `0 -> 1`
    LoadLast,
    /// Raise a type error whose message is string constant `k` (compile-time
    /// detected invalid assignment targets).
    Fail(u16),

    // ---- superinstructions (made by the compiler's peephole pass) ----
    /// `Num k; Bin op`: replace the top of stack with `top op k`. `1 -> 1`
    BinNum {
        /// The operator.
        op: BinaryOp,
        /// Constant-pool index of the right operand.
        k: u16,
    },
    /// `LoadSlot slot; Num k; Bin op`: push `slot op k`. `0 -> 1`
    SlotBinNum {
        /// Frame slot of the left operand.
        slot: u16,
        /// The operator.
        op: BinaryOp,
        /// Constant-pool index of the right operand.
        k: u16,
    },
    /// `Bin rel; JumpIfFalse target`: pop right then left; jump unless
    /// `left rel right`. `2 -> 0`
    JumpUnless {
        /// A comparison ([`BinaryOp::is_comparison`]).
        rel: BinaryOp,
        /// Where to go when the comparison does not hold.
        target: u32,
    },
    /// `Num k; Bin rel; JumpIfFalse target`: pop; jump unless
    /// `popped rel k`. `1 -> 0`
    JumpUnlessNum {
        /// A comparison.
        rel: BinaryOp,
        /// Constant-pool index of the right operand.
        k: u16,
        /// Where to go when the comparison does not hold.
        target: u32,
    },
    /// `LoadSlot slot; Num k; Bin rel; JumpIfFalse target`: jump unless
    /// `slot rel k` (the head of a counting loop). `0 -> 0`
    JumpUnlessSlotNum {
        /// Frame slot of the left operand.
        slot: u16,
        /// A comparison.
        rel: BinaryOp,
        /// Constant-pool index of the right operand.
        k: u16,
        /// Where to go when the comparison does not hold.
        target: u32,
    },
    /// `Dup; StoreSlot i; Pop`: an assignment whose value nothing uses.
    /// `1 -> 0`
    SetSlot(u16),
    /// `Dup; StoreSlot i; StoreLast`: an assignment statement; its value
    /// also becomes the frame's last value. `1 -> 0`
    SetSlotLast(u16),
}

impl Op {
    /// The fuel this instruction costs: the number of primitive instructions
    /// it stands for.  The VM charges it before the instruction runs, so a
    /// script's fuel is a function of its source, not of what was fused.
    pub fn weight(&self) -> u64 {
        match self {
            Op::BinNum { .. } | Op::JumpUnless { .. } => 2,
            Op::SlotBinNum { .. }
            | Op::JumpUnlessNum { .. }
            | Op::SetSlot(_)
            | Op::SetSlotLast(_) => 3,
            Op::JumpUnlessSlotNum { .. } => 4,
            _ => 1,
        }
    }

    /// The instruction indices this instruction can send control to (an
    /// absent catch clause is not one).
    pub fn jump_targets_mut(&mut self) -> [Option<&mut u32>; 3] {
        match self {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::JumpIfTrue(t)
            | Op::ForInNext(t)
            | Op::JumpUnless { target: t, .. }
            | Op::JumpUnlessNum { target: t, .. }
            | Op::JumpUnlessSlotNum { target: t, .. } => [Some(t), None, None],
            Op::LoopEnter {
                break_ip,
                continue_ip,
                ..
            } => [Some(break_ip), Some(continue_ip), None],
            Op::TryEnter {
                catch_ip,
                finally_ip,
                exit_ip,
            } => [
                Some(catch_ip).filter(|ip| **ip != NO_CATCH),
                Some(finally_ip),
                Some(exit_ip),
            ],
            _ => [None, None, None],
        }
    }
}

/// Sentinel for [`Op::TryEnter::catch_ip`] when the `try` has no catch
/// clause.
pub const NO_CATCH: u32 = u32::MAX;

/// How a compiled function stores its local variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameMode {
    /// Every local binding is a numbered frame slot; the scope chain is only
    /// consulted for free names.  Chosen when the function contains no nested
    /// function, so no closure can capture its locals.
    Slotted {
        /// Total slots to allocate per frame.
        n_slots: u16,
    },
    /// Locals live in real [`crate::context::Scope`] chains so nested
    /// closures can capture them; also used for the program's top level,
    /// which runs directly against the context's globals.
    Scoped,
}

/// A function literal (or the program top level) lowered to bytecode.
#[derive(Debug)]
pub struct CompiledFunction {
    /// The source literal, kept for closure creation and identity; `None`
    /// for the program's top-level chunk.
    pub literal: Option<Arc<FunctionLiteral>>,
    /// The instruction stream.
    pub code: Vec<Op>,
    /// The constant pool.
    pub consts: Vec<Const>,
    /// Nested functions referenced by [`Op::MakeClosure`].
    pub funcs: Vec<Arc<CompiledFunction>>,
    /// Local-variable storage strategy.
    pub mode: FrameMode,
    /// Slot indices for the parameters (slotted mode only; empty otherwise).
    pub param_slots: Vec<u16>,
    /// Slot holding `this` in slotted mode.
    pub this_slot: u16,
    /// Slot holding `arguments` in slotted mode.
    pub arguments_slot: u16,
    /// True when the body mentions `arguments` anywhere (nested functions
    /// included); only then is the array made, and accounted, per call.
    pub uses_arguments: bool,
}

/// A whole program lowered to bytecode: the top-level chunk plus every
/// function literal it contains, compiled once and shared.
///
/// The per-literal index is keyed by the literal's allocation address; each
/// entry owns an `Arc` to its literal, so a keyed address can never be
/// recycled while its entry lives.  Function values created by the VM and
/// the tree-walking interpreter are the same [`crate::value::Closure`]s, so
/// either engine can call closures produced by the other; a literal the
/// compiler has not seen before (for example a handler compiled by a
/// different program) is lowered on demand and cached here.
pub struct CompiledProgram {
    /// The top-level chunk.
    pub main: Arc<CompiledFunction>,
    by_literal: RwLock<HashMap<usize, Arc<CompiledFunction>>>,
}

impl CompiledProgram {
    /// Assembles a program around its compiled top-level chunk, indexing
    /// every transitively nested function (used by the compiler).
    pub(crate) fn new(main: CompiledFunction) -> CompiledProgram {
        let program = CompiledProgram {
            main: Arc::new(main),
            by_literal: RwLock::new(HashMap::new()),
        };
        let main = program.main.clone();
        program.register_tree(&main);
        program
    }

    /// Indexes `root` and every function nested beneath it by literal
    /// address.
    fn register_tree(&self, root: &Arc<CompiledFunction>) {
        let mut index = self.by_literal.write();
        let mut pending = vec![root.clone()];
        while let Some(f) = pending.pop() {
            if let Some(lit) = &f.literal {
                index.insert(Arc::as_ptr(lit) as usize, f.clone());
            }
            pending.extend(f.funcs.iter().cloned());
        }
    }

    /// Returns the compiled form of `literal`, lowering and caching it if
    /// this program has not seen it before.
    pub fn function_for(&self, literal: &Arc<FunctionLiteral>) -> Arc<CompiledFunction> {
        let key = Arc::as_ptr(literal) as usize;
        if let Some(f) = self.by_literal.read().get(&key) {
            return f.clone();
        }
        let compiled = Arc::new(crate::compile::compile_function(literal.clone()));
        self.register_tree(&compiled);
        compiled
    }

    /// Total instructions across the top level and all compiled functions
    /// (diagnostics and tests).
    pub fn instruction_count(&self) -> usize {
        self.by_literal
            .read()
            .values()
            .map(|f| f.code.len())
            .sum::<usize>()
            + self.main.code.len()
    }
}

impl std::fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("main_ops", &self.main.code.len())
            .field("functions", &self.by_literal.read().len())
            .finish()
    }
}
