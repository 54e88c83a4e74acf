//! The NkScript bytecode compiler: lowers the AST to the ISA in
//! [`crate::bytecode`].
//!
//! The compiler's contract is to preserve the tree-walking interpreter's
//! observable semantics exactly (the differential property tests in
//! `tests/differential.rs` enforce this), while moving every cost that does
//! not depend on runtime values to compile time:
//!
//! * **Resolved local slots** — a function that contains no nested function
//!   (so no closure can capture its locals) stores every local binding in a
//!   numbered frame slot instead of a `HashMap`-backed scope.  Resolution
//!   replays the interpreter's scope discipline statically: each `if` /
//!   loop / `try` block is a child scope (fresh per iteration), `var`
//!   declares into the innermost block, bare `{}` blocks share their parent,
//!   and a name only resolves to a binding *after* its declaration has been
//!   compiled — uses lexically before a `var` see the enclosing scope, just
//!   as they would at runtime.  Names that resolve to nothing fall back to
//!   dynamic ops against the closure's captured scope chain (where sloppy
//!   assignment lands on the global root).
//! * **Constant interning** — numbers and strings are pooled once; pushing a
//!   string constant at runtime is a reference-count bump rather than a
//!   fresh allocation.
//! * **Control-flow layout** — jumps are resolved to instruction indices;
//!   `break` / `continue` / `return` / errors unwind through a small control
//!   stack that the compiler seeds with `LoopEnter` / `TryEnter` markers, so
//!   `finally` ordering matches the interpreter.
//! * **Scope elision** — in dynamically scoped functions, blocks that
//!   declare nothing skip the child-scope allocation entirely (lookups are
//!   transparent through empty scopes, so this is unobservable).
//! * **Superinstructions** — a peephole pass (`fuse`) over each lowered
//!   function replaces the common numeric and store sequences with one
//!   instruction each, which charges the fuel of the sequence it replaced.

use crate::analysis;
use crate::ast::*;
use crate::bytecode::{CompiledFunction, CompiledProgram, Const, FrameMode, Op, NO_CATCH};
use std::collections::HashMap;
use std::sync::Arc;

/// Compiles a parsed program to bytecode.  Lowering is infallible: every
/// program the parser accepts can be compiled (constructs that the
/// interpreter rejects at runtime, such as invalid assignment targets,
/// compile to instructions that raise the same error when executed).
pub fn compile(program: &Program) -> CompiledProgram {
    CompiledProgram::new(FnCompiler::compile_main(program))
}

/// Compiles a single function literal (used by
/// [`CompiledProgram::function_for`] to lower closures this program has not
/// seen before, e.g. handlers created by another script).
pub(crate) fn compile_function(literal: Arc<FunctionLiteral>) -> CompiledFunction {
    FnCompiler::compile_literal(literal)
}

/// True when the function body contains a nested function (declaration or
/// expression) anywhere, in which case its locals must live in real scopes
/// so closures can capture them.
fn body_contains_function(body: &[Stmt]) -> bool {
    body.iter().any(stmt_contains_function)
}

fn stmt_contains_function(s: &Stmt) -> bool {
    match s {
        Stmt::FunctionDecl { .. } => true,
        Stmt::VarDecl { init, .. } => init.as_ref().is_some_and(expr_contains_function),
        Stmt::Expr(e) | Stmt::Throw(e) => expr_contains_function(e),
        Stmt::Return(e) => e.as_ref().is_some_and(expr_contains_function),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            expr_contains_function(cond)
                || body_contains_function(then_branch)
                || body_contains_function(else_branch)
        }
        Stmt::While { cond, body } => expr_contains_function(cond) || body_contains_function(body),
        Stmt::For {
            init,
            cond,
            update,
            body,
        } => {
            init.as_deref().is_some_and(stmt_contains_function)
                || cond.as_ref().is_some_and(expr_contains_function)
                || update.as_ref().is_some_and(expr_contains_function)
                || body_contains_function(body)
        }
        Stmt::ForIn { object, body, .. } => {
            expr_contains_function(object) || body_contains_function(body)
        }
        Stmt::Try {
            body,
            catch_body,
            finally_body,
            ..
        } => {
            body_contains_function(body)
                || body_contains_function(catch_body)
                || body_contains_function(finally_body)
        }
        Stmt::Block(body) => body_contains_function(body),
        Stmt::Break | Stmt::Continue | Stmt::Empty => false,
    }
}

fn expr_contains_function(e: &Expr) -> bool {
    match e {
        Expr::Function(_) => true,
        Expr::Number(_)
        | Expr::Str(_)
        | Expr::Bool(_)
        | Expr::Null
        | Expr::Undefined
        | Expr::Ident(_) => false,
        Expr::Array(items) => items.iter().any(expr_contains_function),
        Expr::Object(props) => props.iter().any(|(_, v)| expr_contains_function(v)),
        Expr::Unary { expr, .. }
        | Expr::Typeof(expr)
        | Expr::Delete(expr)
        | Expr::Update { target: expr, .. } => expr_contains_function(expr),
        Expr::Binary { left, right, .. } | Expr::Logical { left, right, .. } => {
            expr_contains_function(left) || expr_contains_function(right)
        }
        Expr::Conditional {
            cond,
            then,
            otherwise,
        } => {
            expr_contains_function(cond)
                || expr_contains_function(then)
                || expr_contains_function(otherwise)
        }
        Expr::Assign { target, value, .. } => {
            expr_contains_function(target) || expr_contains_function(value)
        }
        Expr::Member { object, .. } => expr_contains_function(object),
        Expr::Index { object, index } => {
            expr_contains_function(object) || expr_contains_function(index)
        }
        Expr::Call { callee, args } | Expr::New { callee, args } => {
            expr_contains_function(callee) || args.iter().any(expr_contains_function)
        }
    }
}

/// True when executing `body` would declare anything directly into its own
/// scope (`var`, a function declaration, or either inside a bare block,
/// which shares the scope).  Blocks that declare nothing skip the child
/// scope at runtime.
fn block_declares(body: &[Stmt]) -> bool {
    body.iter().any(|s| match s {
        Stmt::VarDecl { .. } | Stmt::FunctionDecl { .. } => true,
        Stmt::Block(inner) => block_declares(inner),
        _ => false,
    })
}

/// The superinstruction that replaces the primitives at the head of
/// `window`, and how many of them it replaces.  `joined[n]` is true when
/// some jump lands on `window[n]`: such an instruction may start a fused
/// group but never sit inside one.
fn fuse_head(window: &[Op], joined: &[bool]) -> Option<(Op, usize)> {
    let straight = |n: usize| !joined[1..n].contains(&true);
    let fused = match *window {
        [Op::LoadSlot(slot), Op::Num(k), Op::Bin(rel), Op::JumpIfFalse(target), ..]
            if rel.is_comparison() && straight(4) =>
        {
            (
                Op::JumpUnlessSlotNum {
                    slot,
                    rel,
                    k,
                    target,
                },
                4,
            )
        }
        [Op::LoadSlot(slot), Op::Num(k), Op::Bin(op), ..] if straight(3) => {
            (Op::SlotBinNum { slot, op, k }, 3)
        }
        [Op::Num(k), Op::Bin(rel), Op::JumpIfFalse(target), ..]
            if rel.is_comparison() && straight(3) =>
        {
            (Op::JumpUnlessNum { rel, k, target }, 3)
        }
        [Op::Dup, Op::StoreSlot(slot), Op::Pop, ..] if straight(3) => (Op::SetSlot(slot), 3),
        [Op::Dup, Op::StoreSlot(slot), Op::StoreLast, ..] if straight(3) => {
            (Op::SetSlotLast(slot), 3)
        }
        [Op::Num(k), Op::Bin(op), ..] if straight(2) => (Op::BinNum { op, k }, 2),
        [Op::Bin(rel), Op::JumpIfFalse(target), ..] if rel.is_comparison() && straight(2) => {
            (Op::JumpUnless { rel, target }, 2)
        }
        _ => return None,
    };
    Some(fused)
}

/// The peephole pass: rewrites a lowered instruction stream into
/// superinstructions, longest match first, and re-aims every jump operand
/// at its instruction's new position.
fn fuse(mut code: Vec<Op>) -> Vec<Op> {
    let mut joined = vec![false; code.len() + 1];
    for op in &mut code {
        for target in op.jump_targets_mut().into_iter().flatten() {
            joined[*target as usize] = true;
        }
    }
    let mut fused = Vec::with_capacity(code.len());
    let mut moved_to = vec![0u32; code.len() + 1];
    let mut at = 0;
    while at < code.len() {
        moved_to[at] = fused.len() as u32;
        let (op, replaced) = fuse_head(&code[at..], &joined[at..]).unwrap_or((code[at], 1));
        fused.push(op);
        at += replaced;
    }
    moved_to[code.len()] = fused.len() as u32;
    for op in &mut fused {
        for target in op.jump_targets_mut().into_iter().flatten() {
            *target = moved_to[*target as usize];
        }
    }
    fused
}

/// Per-function compiler state.
struct FnCompiler {
    code: Vec<Op>,
    consts: Vec<Const>,
    str_index: HashMap<String, u16>,
    num_index: HashMap<u64, u16>,
    funcs: Vec<Arc<CompiledFunction>>,
    func_index: HashMap<usize, u16>,
    /// Slot resolution: a stack of static scopes mirroring the runtime
    /// scope-chain structure (slotted mode only).
    statics: Vec<HashMap<String, u16>>,
    n_slots: u16,
    slotted: bool,
}

impl FnCompiler {
    fn new(slotted: bool) -> FnCompiler {
        FnCompiler {
            code: Vec::new(),
            consts: Vec::new(),
            str_index: HashMap::new(),
            num_index: HashMap::new(),
            funcs: Vec::new(),
            func_index: HashMap::new(),
            statics: if slotted {
                vec![HashMap::new()]
            } else {
                Vec::new()
            },
            n_slots: 0,
            slotted,
        }
    }

    fn compile_main(program: &Program) -> CompiledFunction {
        // The top level always runs dynamically against the context's global
        // scope: vocabularies are (re)installed between runs and handlers
        // registered by the script capture the globals.
        let mut c = FnCompiler::new(false);
        c.hoist(&program.body);
        for s in &program.body {
            c.stmt(s);
        }
        c.emit(Op::LoadLast);
        c.emit(Op::Return);
        c.finish(None)
    }

    fn compile_literal(literal: Arc<FunctionLiteral>) -> CompiledFunction {
        let slotted = !body_contains_function(&literal.body);
        let mut c = FnCompiler::new(slotted);
        let mut param_slots = Vec::new();
        let mut this_slot = 0;
        let mut arguments_slot = 0;
        if slotted {
            for p in &literal.params {
                let s = c.bind(p);
                param_slots.push(s);
            }
            this_slot = c.bind("this");
            arguments_slot = c.bind("arguments");
        }
        c.hoist(&literal.body);
        for s in &literal.body {
            c.stmt(s);
        }
        c.emit(Op::Undef);
        c.emit(Op::Return);
        let uses_arguments = analysis::function_mentions_ident(&literal, "arguments");
        let mut f = c.finish(Some(literal));
        f.uses_arguments = uses_arguments;
        f.param_slots = param_slots;
        f.this_slot = this_slot;
        f.arguments_slot = arguments_slot;
        f
    }

    fn finish(self, literal: Option<Arc<FunctionLiteral>>) -> CompiledFunction {
        #[cfg(test)]
        let code = if tests::UNFUSED.get() {
            self.code
        } else {
            fuse(self.code)
        };
        #[cfg(not(test))]
        let code = fuse(self.code);
        CompiledFunction {
            literal,
            code,
            consts: self.consts,
            funcs: self.funcs,
            mode: if self.slotted {
                FrameMode::Slotted {
                    n_slots: self.n_slots,
                }
            } else {
                FrameMode::Scoped
            },
            param_slots: Vec::new(),
            this_slot: 0,
            arguments_slot: 0,
            uses_arguments: false,
        }
    }

    // ---- emission helpers --------------------------------------------------

    fn emit(&mut self, op: Op) -> usize {
        self.code.push(op);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfTrue(t) | Op::ForInNext(t) => *t = target,
            other => unreachable!("patch on non-jump {other:?}"),
        }
    }

    fn str_const(&mut self, s: &str) -> u16 {
        if let Some(&i) = self.str_index.get(s) {
            return i;
        }
        let i = self.consts.len() as u16;
        self.consts.push(Const::Str(Arc::from(s)));
        self.str_index.insert(s.to_string(), i);
        i
    }

    fn num_const(&mut self, n: f64) -> u16 {
        if let Some(&i) = self.num_index.get(&n.to_bits()) {
            return i;
        }
        let i = self.consts.len() as u16;
        self.consts.push(Const::Num(n));
        self.num_index.insert(n.to_bits(), i);
        i
    }

    fn add_func(&mut self, literal: &Arc<FunctionLiteral>) -> u16 {
        let key = Arc::as_ptr(literal) as usize;
        if let Some(&i) = self.func_index.get(&key) {
            return i;
        }
        let compiled = Arc::new(FnCompiler::compile_literal(literal.clone()));
        let i = self.funcs.len() as u16;
        self.funcs.push(compiled);
        self.func_index.insert(key, i);
        i
    }

    // ---- name resolution ---------------------------------------------------

    /// Declares `name` in the innermost static scope, reusing the slot when
    /// the scope already has a binding for it (matching `Scope::declare`'s
    /// insert-or-overwrite).
    fn bind(&mut self, name: &str) -> u16 {
        let top = self.statics.last_mut().expect("slotted scope stack");
        if let Some(&slot) = top.get(name) {
            return slot;
        }
        let slot = self.n_slots;
        self.n_slots += 1;
        top.insert(name.to_string(), slot);
        slot
    }

    /// Resolves `name` through the static scope chain; `None` means the name
    /// (at this program point) can only live in the captured scope chain.
    fn resolve(&self, name: &str) -> Option<u16> {
        if !self.slotted {
            return None;
        }
        self.statics
            .iter()
            .rev()
            .find_map(|scope| scope.get(name).copied())
    }

    fn declare(&mut self, name: &str) {
        if self.slotted {
            let slot = self.bind(name);
            self.emit(Op::DeclSlot(slot));
        } else {
            let k = self.str_const(name);
            self.emit(Op::DeclName(k));
        }
    }

    fn load_ident(&mut self, name: &str) {
        match self.resolve(name) {
            Some(slot) => {
                self.emit(Op::LoadSlot(slot));
            }
            None => {
                let k = self.str_const(name);
                self.emit(Op::LoadName(k));
            }
        }
    }

    /// Load for assignment-target reads (`eval_target`): a missing binding
    /// yields `undefined` instead of a reference error.
    fn load_ident_soft(&mut self, name: &str) {
        match self.resolve(name) {
            Some(slot) => {
                self.emit(Op::LoadSlot(slot));
            }
            None => {
                let k = self.str_const(name);
                self.emit(Op::LoadNameSoft(k));
            }
        }
    }

    fn store_ident(&mut self, name: &str) {
        match self.resolve(name) {
            Some(slot) => {
                self.emit(Op::StoreSlot(slot));
            }
            None => {
                let k = self.str_const(name);
                self.emit(Op::StoreName(k));
            }
        }
    }

    // ---- blocks and scopes -------------------------------------------------

    /// Hoists function declarations that appear directly in `body` (run
    /// before the block's statements, as `exec_block` does).
    fn hoist(&mut self, body: &[Stmt]) {
        for s in body {
            if let Stmt::FunctionDecl { name, func } = s {
                let f = self.add_func(func);
                self.emit(Op::MakeClosure(f));
                let k = self.str_const(name);
                self.emit(Op::DeclName(k));
            }
        }
    }

    /// Compiles a block.  `new_scope` mirrors the interpreter passing
    /// `scope.child()`: true for `if` branches, loop bodies, and `try`
    /// parts; false for bare blocks and function/program bodies.
    fn block(&mut self, body: &[Stmt], new_scope: bool) {
        let push_runtime = !self.slotted && new_scope && block_declares(body);
        if push_runtime {
            self.emit(Op::PushScope);
        }
        if self.slotted && new_scope {
            self.statics.push(HashMap::new());
        }
        self.hoist(body);
        for s in body {
            self.stmt(s);
        }
        if self.slotted && new_scope {
            self.statics.pop();
        }
        if push_runtime {
            self.emit(Op::PopScope);
        }
    }

    // ---- statements --------------------------------------------------------

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Empty => {
                self.emit(Op::SetLastUndef);
            }
            Stmt::Expr(e) => {
                self.expr(e);
                self.emit(Op::StoreLast);
            }
            Stmt::VarDecl { name, init } => {
                match init {
                    Some(e) => self.expr(e),
                    None => {
                        self.emit(Op::Undef);
                    }
                }
                self.declare(name);
                self.emit(Op::SetLastUndef);
            }
            Stmt::FunctionDecl { name, func } => {
                // Re-declares (a fresh closure) when reached in statement
                // order, in addition to the hoisted declaration.
                let f = self.add_func(func);
                self.emit(Op::MakeClosure(f));
                let k = self.str_const(name);
                self.emit(Op::DeclName(k));
                self.emit(Op::SetLastUndef);
            }
            Stmt::Return(e) => {
                match e {
                    Some(e) => self.expr(e),
                    None => {
                        self.emit(Op::Undef);
                    }
                }
                self.emit(Op::Return);
            }
            Stmt::Throw(e) => {
                self.expr(e);
                self.emit(Op::Throw);
            }
            Stmt::Break => {
                self.emit(Op::Break);
            }
            Stmt::Continue => {
                self.emit(Op::Continue);
            }
            Stmt::Block(body) => {
                self.emit(Op::SetLastUndef);
                self.block(body, false);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond);
                let jf = self.emit(Op::JumpIfFalse(0));
                self.emit(Op::SetLastUndef);
                self.block(then_branch, true);
                let jend = self.emit(Op::Jump(0));
                let else_at = self.here();
                self.patch(jf, else_at);
                self.emit(Op::SetLastUndef);
                self.block(else_branch, true);
                let end = self.here();
                self.patch(jend, end);
            }
            Stmt::While { cond, body } => {
                let le = self.emit(Op::LoopEnter {
                    break_ip: 0,
                    continue_ip: 0,
                    keeps_header_scope: false,
                    keeps_iter: false,
                });
                let lcond = self.here();
                self.expr(cond);
                let jf = self.emit(Op::JumpIfFalse(0));
                self.block(body, true);
                self.emit(Op::Jump(lcond));
                let lexit = self.here();
                self.patch(jf, lexit);
                self.emit(Op::LoopExit);
                let break_ip = self.here();
                self.patch_loop(le, break_ip, lcond);
                self.emit(Op::SetLastUndef);
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                let header = match init {
                    Some(init) => block_declares(std::slice::from_ref(init.as_ref())),
                    None => false,
                };
                let push_header = !self.slotted && header;
                let le = self.emit(Op::LoopEnter {
                    break_ip: 0,
                    continue_ip: 0,
                    keeps_header_scope: push_header,
                    keeps_iter: false,
                });
                if push_header {
                    self.emit(Op::PushScope);
                }
                if self.slotted {
                    self.statics.push(HashMap::new());
                }
                if let Some(init) = init {
                    self.stmt(init);
                }
                let lcond = self.here();
                let jf = match cond {
                    Some(cond) => {
                        self.expr(cond);
                        Some(self.emit(Op::JumpIfFalse(0)))
                    }
                    None => None,
                };
                self.block(body, true);
                let lupdate = self.here();
                if let Some(update) = update {
                    self.expr(update);
                    self.emit(Op::Pop);
                }
                self.emit(Op::Jump(lcond));
                let lexit = self.here();
                if let Some(jf) = jf {
                    self.patch(jf, lexit);
                }
                self.emit(Op::LoopExit);
                if self.slotted {
                    self.statics.pop();
                }
                if push_header {
                    self.emit(Op::PopScope);
                }
                let break_ip = self.here();
                self.patch_loop(le, break_ip, lupdate);
                self.emit(Op::SetLastUndef);
            }
            Stmt::ForIn { var, object, body } => {
                let le = self.emit(Op::LoopEnter {
                    break_ip: 0,
                    continue_ip: 0,
                    keeps_header_scope: !self.slotted,
                    keeps_iter: true,
                });
                // The iterated object is evaluated in the enclosing scope,
                // before the loop scope exists.
                self.expr(object);
                self.emit(Op::ForInInit);
                if self.slotted {
                    self.statics.push(HashMap::new());
                } else {
                    self.emit(Op::PushScope);
                }
                let lnext = self.here();
                let fin = self.emit(Op::ForInNext(0));
                self.declare(var);
                self.block(body, true);
                self.emit(Op::Jump(lnext));
                let lexit = self.here();
                self.patch(fin, lexit);
                self.emit(Op::LoopExit);
                if self.slotted {
                    self.statics.pop();
                } else {
                    self.emit(Op::PopScope);
                }
                let break_ip = self.here();
                self.patch_loop(le, break_ip, lnext);
                self.emit(Op::SetLastUndef);
            }
            Stmt::Try {
                body,
                catch_name,
                catch_body,
                finally_body,
            } => {
                let te = self.emit(Op::TryEnter {
                    catch_ip: 0,
                    finally_ip: 0,
                    exit_ip: 0,
                });
                self.emit(Op::SetLastUndef);
                self.block(body, true);
                self.emit(Op::TryEndBody);
                let catch_ip = match catch_name {
                    Some(name) => {
                        let cip = self.here();
                        // The unwinder pushed the stringified error; bind it
                        // in a fresh scope shared with the catch body.
                        self.emit(Op::SetLastUndef);
                        if self.slotted {
                            self.statics.push(HashMap::new());
                        } else {
                            self.emit(Op::PushScope);
                        }
                        self.declare(name);
                        self.hoist(catch_body);
                        for s in catch_body {
                            self.stmt(s);
                        }
                        if self.slotted {
                            self.statics.pop();
                        } else {
                            self.emit(Op::PopScope);
                        }
                        self.emit(Op::TryEndBody);
                        cip
                    }
                    None => NO_CATCH,
                };
                let finally_ip = self.here();
                self.block(finally_body, true);
                let exit_ip = self.here();
                self.emit(Op::TryExit);
                if let Op::TryEnter {
                    catch_ip: c,
                    finally_ip: f,
                    exit_ip: e,
                } = &mut self.code[te]
                {
                    *c = catch_ip;
                    *f = finally_ip;
                    *e = exit_ip;
                } else {
                    unreachable!("try patch target");
                }
            }
        }
    }

    fn patch_loop(&mut self, at: usize, break_target: u32, continue_target: u32) {
        if let Op::LoopEnter {
            break_ip,
            continue_ip,
            ..
        } = &mut self.code[at]
        {
            *break_ip = break_target;
            *continue_ip = continue_target;
        } else {
            unreachable!("loop patch target");
        }
    }

    // ---- expressions -------------------------------------------------------

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Number(n) => {
                let k = self.num_const(*n);
                self.emit(Op::Num(k));
            }
            Expr::Str(s) => {
                let k = self.str_const(s);
                self.emit(Op::Str(k));
            }
            Expr::Bool(true) => {
                self.emit(Op::True);
            }
            Expr::Bool(false) => {
                self.emit(Op::False);
            }
            Expr::Null => {
                self.emit(Op::Null);
            }
            Expr::Undefined => {
                self.emit(Op::Undef);
            }
            Expr::Ident(name) => self.load_ident(name),
            Expr::Array(items) => {
                for item in items {
                    self.expr(item);
                }
                self.emit(Op::MakeArray(items.len() as u16));
            }
            Expr::Object(props) => {
                self.emit(Op::MakeObject);
                for (key, value) in props {
                    self.expr(value);
                    let k = self.str_const(key);
                    self.emit(Op::InitProp(k));
                }
                self.emit(Op::AccountTop);
            }
            Expr::Function(literal) => {
                debug_assert!(!self.slotted, "function literal in slotted mode");
                let f = self.add_func(literal);
                self.emit(Op::MakeClosure(f));
            }
            Expr::Unary { op, expr } => {
                self.expr(expr);
                self.emit(match op {
                    UnaryOp::Neg => Op::Neg,
                    UnaryOp::Plus => Op::Plus,
                    UnaryOp::Not => Op::Not,
                });
            }
            Expr::Binary { op, left, right } => {
                self.expr(left);
                self.expr(right);
                self.emit(Op::Bin(*op));
            }
            Expr::Logical {
                is_and,
                left,
                right,
            } => {
                self.expr(left);
                self.emit(Op::Dup);
                let j = self.emit(if *is_and {
                    Op::JumpIfFalse(0)
                } else {
                    Op::JumpIfTrue(0)
                });
                self.emit(Op::Pop);
                self.expr(right);
                let end = self.here();
                self.patch(j, end);
            }
            Expr::Conditional {
                cond,
                then,
                otherwise,
            } => {
                self.expr(cond);
                let jf = self.emit(Op::JumpIfFalse(0));
                self.expr(then);
                let jend = self.emit(Op::Jump(0));
                let at = self.here();
                self.patch(jf, at);
                self.expr(otherwise);
                let end = self.here();
                self.patch(jend, end);
            }
            Expr::Assign { target, op, value } => self.assign(target, *op, value),
            Expr::Member { object, property } => {
                self.expr(object);
                let k = self.str_const(property);
                self.emit(Op::GetProp(k));
            }
            Expr::Index { object, index } => {
                self.expr(object);
                self.expr(index);
                self.emit(Op::GetIndex);
            }
            Expr::Call { callee, args } => {
                // Arguments are evaluated before the callee, matching the
                // interpreter.
                for a in args {
                    self.expr(a);
                }
                let argc = args.len() as u16;
                match callee.as_ref() {
                    Expr::Member { object, property } => {
                        self.expr(object);
                        let name = self.str_const(property);
                        self.emit(Op::CallMethod { name, argc });
                    }
                    Expr::Index { object, index } => {
                        self.expr(object);
                        self.expr(index);
                        self.emit(Op::CallIndexMethod(argc));
                    }
                    _ => {
                        self.expr(callee);
                        self.emit(Op::Call(argc));
                    }
                }
            }
            Expr::New { callee, args } => {
                for a in args {
                    self.expr(a);
                }
                self.expr(callee);
                let class = match callee.as_ref() {
                    Expr::Ident(name) => name.clone(),
                    Expr::Member { property, .. } => property.clone(),
                    _ => "Object".to_string(),
                };
                let class = self.str_const(&class);
                self.emit(Op::New {
                    argc: args.len() as u16,
                    class,
                });
            }
            Expr::Typeof(inner) => {
                if let Expr::Ident(name) = inner.as_ref() {
                    match self.resolve(name) {
                        Some(slot) => {
                            self.emit(Op::LoadSlot(slot));
                            self.emit(Op::Typeof);
                        }
                        None => {
                            let k = self.str_const(name);
                            self.emit(Op::TypeofName(k));
                        }
                    }
                } else {
                    self.expr(inner);
                    self.emit(Op::Typeof);
                }
            }
            Expr::Delete(inner) => match inner.as_ref() {
                Expr::Member { object, property } => {
                    self.expr(object);
                    let k = self.str_const(property);
                    self.emit(Op::DelProp(k));
                }
                Expr::Index { object, index } => {
                    self.expr(object);
                    self.expr(index);
                    self.emit(Op::DelIndex);
                }
                // `delete` of anything else is `false` without evaluating
                // the operand, matching the interpreter.
                _ => {
                    self.emit(Op::False);
                }
            },
            Expr::Update {
                target,
                delta,
                prefix,
            } => self.update(target, *delta, *prefix),
        }
    }

    fn assign(&mut self, target: &Expr, op: Option<BinaryOp>, value: &Expr) {
        // The assigned value is always evaluated first; compound assignment
        // then reads the target (evaluating a member target's object
        // expression once for the read and once again for the write, as the
        // interpreter does).
        self.expr(value);
        match target {
            Expr::Ident(name) => {
                if let Some(op) = op {
                    self.load_ident_soft(name);
                    self.emit(Op::Swap);
                    self.emit(Op::Bin(op));
                }
                self.emit(Op::Dup);
                self.store_ident(name);
            }
            Expr::Member { object, property } => {
                let k = self.str_const(property);
                if let Some(op) = op {
                    self.expr(object);
                    self.emit(Op::GetProp(k));
                    self.emit(Op::Swap);
                    self.emit(Op::Bin(op));
                }
                self.expr(object);
                self.emit(Op::SetProp(k));
            }
            Expr::Index { object, index } => {
                if let Some(op) = op {
                    self.expr(object);
                    self.expr(index);
                    self.emit(Op::GetIndex);
                    self.emit(Op::Swap);
                    self.emit(Op::Bin(op));
                }
                self.expr(object);
                self.expr(index);
                self.emit(Op::SetIndex);
            }
            other => {
                if let Some(op) = op {
                    // Compound assignment reads (evaluates) even an invalid
                    // target before failing.
                    self.expr(other);
                    self.emit(Op::Swap);
                    self.emit(Op::Bin(op));
                }
                let msg = format!("invalid assignment target: {other:?}");
                let k = self.str_const(&msg);
                self.emit(Op::Fail(k));
            }
        }
    }

    fn update(&mut self, target: &Expr, delta: f64, prefix: bool) {
        let dk = self.num_const(delta);
        match target {
            Expr::Ident(name) => {
                self.load_ident_soft(name);
                self.emit(Op::ToNumber);
                self.emit(Op::Dup);
                self.emit(Op::Num(dk));
                self.emit(Op::Bin(BinaryOp::Add));
                self.emit(Op::Dup);
                self.store_ident(name);
            }
            Expr::Member { object, property } => {
                let k = self.str_const(property);
                self.expr(object);
                self.emit(Op::GetProp(k));
                self.emit(Op::ToNumber);
                self.emit(Op::Dup);
                self.emit(Op::Num(dk));
                self.emit(Op::Bin(BinaryOp::Add));
                self.expr(object);
                self.emit(Op::SetProp(k));
            }
            Expr::Index { object, index } => {
                self.expr(object);
                self.expr(index);
                self.emit(Op::GetIndex);
                self.emit(Op::ToNumber);
                self.emit(Op::Dup);
                self.emit(Op::Num(dk));
                self.emit(Op::Bin(BinaryOp::Add));
                self.expr(object);
                self.expr(index);
                self.emit(Op::SetIndex);
            }
            other => {
                self.expr(other);
                self.emit(Op::Pop);
                let msg = format!("invalid assignment target: {other:?}");
                let k = self.str_const(&msg);
                self.emit(Op::Fail(k));
                return;
            }
        }
        // Stack: old, new (the store consumed its copy).  The expression's
        // value is `new` for prefix operators, `old` for postfix.
        if prefix {
            self.emit(Op::Swap);
        }
        self.emit(Op::Pop);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::parser::parse_program;
    use std::cell::Cell;

    thread_local! {
        /// While set, [`FnCompiler::finish`] skips the peephole pass: how
        /// the tests get the primitive stream to hold the fused one against.
        pub(crate) static UNFUSED: Cell<bool> = const { Cell::new(false) };
    }

    /// Compiles `source` to primitive instructions only.
    pub(crate) fn compile_unfused(source: &str) -> CompiledProgram {
        let program = parse_program(source).expect("the source parses");
        UNFUSED.set(true);
        let compiled = compile(&program);
        UNFUSED.set(false);
        compiled
    }

    pub(crate) fn compile_fused(source: &str) -> CompiledProgram {
        compile(&parse_program(source).expect("the source parses"))
    }

    /// The differential corpus (what of it parses), plus loops shaped like
    /// the ones the pass exists for.
    pub(crate) fn corpus() -> Vec<&'static str> {
        const CORPUS: &[&str] = include!("../tests/corpus/fixed.rs");
        let mut all = CORPUS.to_vec();
        all.retain(|source| parse_program(source).is_ok());
        all.extend([
            "function f() { var acc = 0; for (var i = 0; i < 100; i = i + 1) { acc = (acc + i * 3) % 9973; } return '' + acc; } f()",
            "function f(n) { var s = 0; var i = 0; while (i < n) { i++; if (i % 2 == 0) { continue; } s += i; } return s; } f(9)",
            "function f(a, b) { var x = a; x = x + 1; if (x >= b) { x = x - b; } return x < 3 ? x * 2 : x; } '' + f(1, 2) + f(5, 9)",
            "function f() { var t = 0; for (var i = 0; i < 4; i = i + 1) { try { if (i == 2) { throw 'two'; } t = t + i; } catch (e) { t = t * 10; } finally { t = t + 1; } } return t; } f()",
        ]);
        all
    }

    fn functions(program: &CompiledProgram) -> Vec<Arc<CompiledFunction>> {
        let mut all = vec![program.main.clone()];
        let mut next = 0;
        while next < all.len() {
            let nested = all[next].funcs.clone();
            all.extend(nested);
            next += 1;
        }
        all
    }

    fn targets_of(mut op: Op) -> Vec<u32> {
        op.jump_targets_mut()
            .into_iter()
            .flatten()
            .map(|t| *t)
            .collect()
    }

    /// The primitives a (super)instruction stands for, jump operands as they
    /// are in `op`.
    fn primitives(op: Op) -> Vec<Op> {
        match op {
            Op::BinNum { op, k } => vec![Op::Num(k), Op::Bin(op)],
            Op::SlotBinNum { slot, op, k } => vec![Op::LoadSlot(slot), Op::Num(k), Op::Bin(op)],
            Op::JumpUnless { rel, target } => vec![Op::Bin(rel), Op::JumpIfFalse(target)],
            Op::JumpUnlessNum { rel, k, target } => {
                vec![Op::Num(k), Op::Bin(rel), Op::JumpIfFalse(target)]
            }
            Op::JumpUnlessSlotNum {
                slot,
                rel,
                k,
                target,
            } => vec![
                Op::LoadSlot(slot),
                Op::Num(k),
                Op::Bin(rel),
                Op::JumpIfFalse(target),
            ],
            Op::SetSlot(slot) => vec![Op::Dup, Op::StoreSlot(slot), Op::Pop],
            Op::SetSlotLast(slot) => vec![Op::Dup, Op::StoreSlot(slot), Op::StoreLast],
            primitive => vec![primitive],
        }
    }

    #[test]
    fn fused_code_is_the_primitive_code_regrouped_with_every_jump_on_a_group_start() {
        let mut fused_groups = 0;
        for source in corpus() {
            let plain = functions(&compile_unfused(source));
            let fused = functions(&compile_fused(source));
            assert_eq!(plain.len(), fused.len(), "{source:?}");
            for (plain, fused) in plain.iter().zip(&fused) {
                // Where each fused instruction's first primitive was.
                let mut was_at = Vec::with_capacity(fused.code.len() + 1);
                let mut at = 0u32;
                for op in &fused.code {
                    was_at.push(at);
                    at += op.weight() as u32;
                }
                was_at.push(at);
                assert_eq!(at as usize, plain.code.len(), "weights add up: {source:?}");

                for (new_ip, op) in fused.code.iter().enumerate() {
                    let old_ip = was_at[new_ip] as usize;
                    let group = primitives(*op);
                    assert_eq!(group.len() as u64, op.weight(), "{op:?}");
                    fused_groups += usize::from(group.len() > 1);
                    for (offset, primitive) in group.iter().enumerate() {
                        let original = plain.code[old_ip + offset];
                        // Same instruction, jump operands aside...
                        let (mut a, mut b) = (*primitive, original);
                        for t in a.jump_targets_mut().into_iter().flatten() {
                            *t = 0;
                        }
                        for t in b.jump_targets_mut().into_iter().flatten() {
                            *t = 0;
                        }
                        assert_eq!(a, b, "{source:?} at {old_ip}+{offset}");
                        // ...and each operand the start of the group that
                        // holds the instruction it used to name.
                        let (now, before) = (targets_of(*primitive), targets_of(original));
                        assert_eq!(now.len(), before.len());
                        for (now, before) in now.iter().zip(&before) {
                            assert!((*now as usize) < fused.code.len(), "{source:?}");
                            assert_eq!(was_at[*now as usize], *before, "{source:?}");
                        }
                        // No jump lands inside a group.
                        if offset > 0 {
                            let inside = (old_ip + offset) as u32;
                            assert!(
                                plain
                                    .code
                                    .iter()
                                    .all(|op| !targets_of(*op).contains(&inside)),
                                "{source:?}: a jump to {inside} was fused over"
                            );
                        }
                    }
                }
            }
        }
        assert!(fused_groups >= 50, "the corpus exercises the pass");
    }

    #[test]
    fn a_jump_target_is_never_fused_over() {
        // The two arms of `c ? 0 : 1` meet at the `Bin` that consumes the
        // value, so the second arm's `Num 1` and that `Bin` must stay two
        // instructions (the compiler never lays code out like this today;
        // the pass must not depend on that).
        let code = vec![
            Op::LoadSlot(0),
            Op::JumpIfFalse(4),
            Op::Num(0),
            Op::Jump(5),
            Op::Num(1),
            Op::Bin(BinaryOp::Add),
            Op::Return,
        ];
        let fused = fuse(code.clone());
        assert_eq!(fused, code, "`Num 1; Bin` straddles a join");

        let code = vec![
            Op::Jump(2),
            Op::Null,
            Op::Dup,
            Op::StoreSlot(3),
            Op::Pop,
            Op::Jump(2),
        ];
        assert_eq!(
            fuse(code),
            vec![Op::Jump(2), Op::Null, Op::SetSlot(3), Op::Jump(2)],
            "a join may start a group, and operands follow it"
        );
    }
}
