//! The NkScript stack-based bytecode VM.
//!
//! Executes a [`CompiledProgram`] inside a [`Context`] under exactly the
//! sandbox contract the tree-walking interpreter enforces: fuel is charged
//! per primitive instruction (a superinstruction charges, before it runs,
//! the primitives it stands for; the kill flag is polled at the same
//! safepoint cadence), heap allocations are accounted against the context's
//! memory limit, script call depth is bounded, and every failure surfaces as
//! the same [`ScriptError`].  The differential property tests in
//! `tests/differential.rs` pin the two engines to identical values and
//! errors.
//!
//! Fuel *counts* are the one sanctioned divergence: the interpreter charges
//! per AST node visited, the VM per primitive instruction, so the same
//! program consumes similar but not identical fuel on the two engines.  Both
//! engines kill runaway scripts; callers must not depend on the exact step
//! at which a limit trips.  What the VM charges a given source is fixed,
//! though: it does not depend on which instructions the compiler fused.
//!
//! Control flow (`break` / `continue` / `return` / thrown errors) unwinds
//! through a per-frame control stack seeded by `LoopEnter` / `TryEnter`
//! markers, which is how `finally` ordering, catch-scope creation, and the
//! "resource kills skip `catch` but still route through `finally`" rule are
//! reproduced without the interpreter's Rust-level recursion.

use crate::ast::BinaryOp;
use crate::bytecode::{CompiledFunction, CompiledProgram, Const, FrameMode, Op, NO_CATCH};
use crate::context::{Context, Scope};
use crate::error::ScriptError;
use crate::interp::{binary_values, number_binary, MAX_DEPTH, SAFEPOINT_INTERVAL};
use crate::stdlib;
use crate::value::{Closure, ObjectData, Value};
use parking_lot::RwLock;
use std::sync::Arc;

/// A live `for-in` iteration (keys snapshotted at loop entry, as the
/// interpreter does).
struct ForInIter {
    keys: Vec<String>,
    idx: usize,
}

/// The outcome a protected region carries into its `finally` code.
enum Pending {
    /// Normal completion; the value restores the frame's last-value register.
    Value(Value),
    /// An uncaught (or catch-re-raised) error.
    Err(ScriptError),
    /// A `return` passing through.
    Return(Value),
    /// A `break` passing through.
    Break,
    /// A `continue` passing through.
    Continue,
}

/// Which part of a `try` statement is currently executing.
#[derive(PartialEq, Eq, Clone, Copy)]
enum TryState {
    Body,
    Catch,
    Finally,
}

/// One entry on a frame's control stack.
enum Ctrl {
    Loop {
        break_ip: u32,
        continue_ip: u32,
        stack_h: usize,
        scope_d: usize,
        iter_d: usize,
        keeps_header_scope: bool,
        keeps_iter: bool,
    },
    Try {
        catch_ip: u32,
        finally_ip: u32,
        exit_ip: u32,
        stack_h: usize,
        scope_d: usize,
        iter_d: usize,
        state: TryState,
        pending: Pending,
    },
}

/// One function activation.
struct Frame {
    stack: Vec<Value>,
    slots: Vec<Value>,
    scopes: Vec<Scope>,
    iters: Vec<ForInIter>,
    ctrl: Vec<Ctrl>,
    last: Value,
    ip: usize,
}

impl Frame {
    fn new(n_slots: usize, scopes: Vec<Scope>) -> Frame {
        Frame {
            stack: Vec::with_capacity(8),
            slots: vec![Value::Undefined; n_slots],
            scopes,
            iters: Vec::new(),
            ctrl: Vec::new(),
            last: Value::Undefined,
            ip: 0,
        }
    }

    fn pop(&mut self) -> Value {
        self.stack.pop().expect("vm stack underflow")
    }

    fn top_mut(&mut self) -> &mut Value {
        self.stack.last_mut().expect("vm stack underflow")
    }

    fn scope(&self) -> &Scope {
        self.scopes.last().expect("vm scope stack empty")
    }

    fn truncate_to(&mut self, stack_h: usize, scope_d: usize, iter_d: usize) {
        self.stack.truncate(stack_h);
        self.scopes.truncate(scope_d);
        self.iters.truncate(iter_d);
    }
}

/// Raises `e` inside the frame: routes it to the innermost catch handler (or
/// through intervening `finally` blocks).  `Err` means the error escapes the
/// frame.  Resource kills (fuel, memory, termination) skip `catch` clauses
/// but still enter `finally` code, exactly as the interpreter behaves.
fn raise(frame: &mut Frame, mut e: ScriptError) -> Result<(), ScriptError> {
    loop {
        let Some(top) = frame.ctrl.last_mut() else {
            return Err(e);
        };
        match top {
            Ctrl::Loop { .. } => {
                frame.ctrl.pop();
            }
            Ctrl::Try {
                catch_ip,
                finally_ip,
                stack_h,
                scope_d,
                iter_d,
                state,
                pending,
                ..
            } => match *state {
                TryState::Body if *catch_ip != NO_CATCH && !e.is_resource_kill() => {
                    let (cip, sh, sd, id) = (*catch_ip, *stack_h, *scope_d, *iter_d);
                    *state = TryState::Catch;
                    let message = match &e {
                        ScriptError::Thrown(m) => m.clone(),
                        other => other.to_string(),
                    };
                    frame.truncate_to(sh, sd, id);
                    // The catch prologue declares its binding by popping this.
                    frame.stack.push(Value::string(message));
                    frame.ip = cip as usize;
                    return Ok(());
                }
                TryState::Body | TryState::Catch => {
                    let (fip, sh, sd, id) = (*finally_ip, *stack_h, *scope_d, *iter_d);
                    *pending = Pending::Err(e);
                    *state = TryState::Finally;
                    frame.truncate_to(sh, sd, id);
                    frame.ip = fip as usize;
                    return Ok(());
                }
                TryState::Finally => {
                    // An error inside finally code: the body/catch error (if
                    // one is pending) wins, matching the interpreter.
                    if let Pending::Err(e0) =
                        std::mem::replace(pending, Pending::Value(Value::Undefined))
                    {
                        e = e0;
                    }
                    frame.ctrl.pop();
                }
            },
        }
    }
}

/// Unwinds a `return` carrying `v`.  `Some` means the frame completes with
/// that value; `None` means an enclosing `finally` intercepted it (a
/// `return` written inside finally code itself is discarded, matching the
/// interpreter's treatment of the finally block's own flow).
fn unwind_return(frame: &mut Frame, v: Value) -> Option<Value> {
    loop {
        let Some(top) = frame.ctrl.last_mut() else {
            return Some(v);
        };
        match top {
            Ctrl::Loop { .. } => {
                frame.ctrl.pop();
            }
            Ctrl::Try {
                finally_ip,
                exit_ip,
                stack_h,
                scope_d,
                iter_d,
                state,
                pending,
                ..
            } => {
                if *state == TryState::Finally {
                    let (xip, sh, sd, id) = (*exit_ip, *stack_h, *scope_d, *iter_d);
                    frame.truncate_to(sh, sd, id);
                    frame.ip = xip as usize;
                } else {
                    let (fip, sh, sd, id) = (*finally_ip, *stack_h, *scope_d, *iter_d);
                    *pending = Pending::Return(v);
                    *state = TryState::Finally;
                    frame.truncate_to(sh, sd, id);
                    frame.ip = fip as usize;
                }
                return None;
            }
        }
    }
}

/// Unwinds a `break` (or `continue` when `is_continue`).  `Err` is the
/// outside-of-a-loop type error, which by construction can only occur with
/// an empty control stack and therefore escapes the frame uncaught — just as
/// the interpreter only materialises it at a function or program boundary.
fn unwind_break(frame: &mut Frame, is_continue: bool) -> Result<(), ScriptError> {
    let Some(top) = frame.ctrl.last_mut() else {
        return Err(ScriptError::Type(
            "break/continue outside of a loop".to_string(),
        ));
    };
    match top {
        Ctrl::Loop {
            break_ip,
            continue_ip,
            stack_h,
            scope_d,
            iter_d,
            keeps_header_scope,
            keeps_iter,
        } => {
            let (bip, cip, sh, sd, id) = (*break_ip, *continue_ip, *stack_h, *scope_d, *iter_d);
            let (kh, ki) = (*keeps_header_scope as usize, *keeps_iter as usize);
            if is_continue {
                frame.truncate_to(sh, sd + kh, id + ki);
                frame.ip = cip as usize;
            } else {
                frame.truncate_to(sh, sd, id);
                frame.ctrl.pop();
                frame.ip = bip as usize;
            }
        }
        Ctrl::Try {
            finally_ip,
            exit_ip,
            stack_h,
            scope_d,
            iter_d,
            state,
            pending,
            ..
        } => {
            if *state == TryState::Finally {
                // break/continue written inside finally code: discarded.
                let (xip, sh, sd, id) = (*exit_ip, *stack_h, *scope_d, *iter_d);
                frame.truncate_to(sh, sd, id);
                frame.ip = xip as usize;
            } else {
                let (fip, sh, sd, id) = (*finally_ip, *stack_h, *scope_d, *iter_d);
                *pending = if is_continue {
                    Pending::Continue
                } else {
                    Pending::Break
                };
                *state = TryState::Finally;
                frame.truncate_to(sh, sd, id);
                frame.ip = fip as usize;
            }
        }
    }
    Ok(())
}

fn cstr(func: &CompiledFunction, k: u16) -> &Arc<str> {
    match &func.consts[k as usize] {
        Const::Str(s) => s,
        other => unreachable!("string constant expected, found {other:?}"),
    }
}

fn cnum(func: &CompiledFunction, k: u16) -> f64 {
    match &func.consts[k as usize] {
        Const::Num(n) => *n,
        other => unreachable!("numeric constant expected, found {other:?}"),
    }
}

fn forin_keys(v: &Value) -> Vec<String> {
    match v {
        Value::Object(o) => o.read().properties.keys().cloned().collect(),
        Value::Array(a) => (0..a.read().len()).map(|i| i.to_string()).collect(),
        Value::Str(s) => (0..s.chars().count()).map(|i| i.to_string()).collect(),
        _ => Vec::new(),
    }
}

/// True when `l rel r` holds, for a comparison `rel`: numbers compared where
/// they lie, everything else through the shared `binary_values`.
#[inline(always)]
fn holds(rel: BinaryOp, l: &Value, r: &Value) -> bool {
    match (l, r) {
        (Value::Number(a), Value::Number(b)) => number_binary(rel, *a, *b).truthy(),
        _ => binary_values(rel, l, r).0.truthy(),
    }
}

/// The bytecode VM.  Cheap to create; holds per-run accounting, mirroring
/// [`crate::Interpreter`]'s public surface.
pub struct Vm<'c> {
    ctx: &'c Context,
    fuel_used: u64,
    fuel_reported: u64,
    /// The fuel count at which charging has more to do than count: the next
    /// safepoint or the first unit past the limit, whichever comes first.
    fuel_event: u64,
    mem_used: usize,
    depth: usize,
}

impl<'c> Vm<'c> {
    /// Creates a VM bound to `ctx`.
    pub fn new(ctx: &'c Context) -> Vm<'c> {
        let mut vm = Vm {
            ctx,
            fuel_used: 0,
            fuel_reported: 0,
            fuel_event: 0,
            mem_used: 0,
            depth: 0,
        };
        vm.aim_fuel_event();
        vm
    }

    /// Reports any not-yet-reported fuel to the context's meter.
    pub(crate) fn flush_meter(&mut self) {
        if self.fuel_used > self.fuel_reported {
            self.ctx
                .meter
                .add_steps(self.fuel_used - self.fuel_reported);
            self.fuel_reported = self.fuel_used;
            self.aim_fuel_event();
        }
    }

    /// Fuel consumed so far in this run (primitive instructions dispatched;
    /// a superinstruction counts as the primitives it stands for).
    pub fn fuel_used(&self) -> u64 {
        self.fuel_used
    }

    /// Approximate bytes allocated so far in this run.
    #[cfg(test)]
    pub(crate) fn memory_used(&self) -> usize {
        self.mem_used
    }

    /// Runs a compiled program's top level in the context's global scope,
    /// returning the value of the last expression statement (or
    /// `undefined`).
    pub fn run(&mut self, program: &CompiledProgram) -> Result<Value, ScriptError> {
        let mut frame = Frame::new(0, vec![self.ctx.globals.clone()]);
        let result = self.run_frame(program, &program.main, &mut frame);
        self.flush_meter();
        result
    }

    /// Calls a script or native function value with an explicit `this` and
    /// arguments — how the pipeline invokes `onRequest` / `onResponse`
    /// handlers on the VM engine.  Closures compiled by another program are
    /// lowered on demand and cached in `program`.
    pub fn call_function(
        &mut self,
        program: &CompiledProgram,
        callee: &Value,
        this: &Value,
        args: &[Value],
    ) -> Result<Value, ScriptError> {
        self.call_value(program, callee, this, args)
    }

    // ---- accounting (identical to the interpreter) -------------------------

    fn aim_fuel_event(&mut self) {
        self.fuel_event =
            (self.fuel_reported + SAFEPOINT_INTERVAL).min(self.ctx.fuel_limit.saturating_add(1));
    }

    /// Charges `fuel` for the instruction about to run.  One comparison
    /// unless a safepoint or the limit has been reached; past the limit
    /// every charge fails.
    #[inline]
    fn charge(&mut self, fuel: u64) -> Result<(), ScriptError> {
        self.fuel_used += fuel;
        if self.fuel_used < self.fuel_event {
            return Ok(());
        }
        self.fuel_event_reached()
    }

    #[cold]
    fn fuel_event_reached(&mut self) -> Result<(), ScriptError> {
        if self.fuel_used - self.fuel_reported >= SAFEPOINT_INTERVAL {
            self.flush_meter();
            if self.ctx.meter.is_killed() {
                return Err(ScriptError::Terminated);
            }
        }
        if self.fuel_used > self.ctx.fuel_limit {
            return Err(ScriptError::FuelExhausted);
        }
        Ok(())
    }

    fn account_alloc(&mut self, value: &Value) -> Result<(), ScriptError> {
        let size = value.shallow_size();
        self.mem_used += size;
        self.ctx.meter.add_allocated(size as u64);
        if self.mem_used > self.ctx.memory_limit {
            return Err(ScriptError::MemoryExceeded {
                limit: self.ctx.memory_limit,
            });
        }
        Ok(())
    }

    /// `l op r` for operands that are not both numbers.
    fn binary(&mut self, op: BinaryOp, l: &Value, r: &Value) -> Result<Value, ScriptError> {
        let (v, needs_account) = binary_values(op, l, r);
        if needs_account {
            self.account_alloc(&v)?;
        }
        Ok(v)
    }

    // ---- calls -------------------------------------------------------------

    fn call_value(
        &mut self,
        program: &CompiledProgram,
        callee: &Value,
        this: &Value,
        args: &[Value],
    ) -> Result<Value, ScriptError> {
        self.charge(1)?;
        let result = match callee {
            Value::Native(f) => f(this, args),
            Value::Function(closure) => {
                if self.depth >= MAX_DEPTH {
                    return Err(ScriptError::StackOverflow);
                }
                self.depth += 1;
                let func = program.function_for(&closure.literal);
                let result = self.run_function(program, &func, closure, this, args);
                self.depth -= 1;
                result
            }
            other => Err(ScriptError::Type(format!(
                "{} is not a function",
                other.type_name()
            ))),
        };
        if self.depth == 0 {
            self.flush_meter();
        }
        result
    }

    fn run_function(
        &mut self,
        program: &CompiledProgram,
        func: &CompiledFunction,
        closure: &Closure,
        this: &Value,
        args: &[Value],
    ) -> Result<Value, ScriptError> {
        // Made, and charged to the memory limit, only for a body that can
        // see it — exactly as the interpreter does.
        let arguments = if func.uses_arguments {
            let arguments = Value::new_array(args.to_vec());
            self.account_alloc(&arguments)?;
            Some(arguments)
        } else {
            None
        };
        let mut frame = match func.mode {
            FrameMode::Slotted { n_slots } => {
                let mut frame = Frame::new(n_slots as usize, vec![closure.scope.clone()]);
                for (i, slot) in func.param_slots.iter().enumerate() {
                    frame.slots[*slot as usize] = args.get(i).cloned().unwrap_or(Value::Undefined);
                }
                frame.slots[func.this_slot as usize] = this.clone();
                if let Some(arguments) = arguments {
                    frame.slots[func.arguments_slot as usize] = arguments;
                }
                frame
            }
            FrameMode::Scoped => {
                let scope = closure.scope.child();
                let literal = func
                    .literal
                    .as_ref()
                    .expect("scoped function has a literal");
                for (i, param) in literal.params.iter().enumerate() {
                    scope.declare(param, args.get(i).cloned().unwrap_or(Value::Undefined));
                }
                scope.declare("this", this.clone());
                if let Some(arguments) = arguments {
                    scope.declare("arguments", arguments);
                }
                Frame::new(0, vec![scope])
            }
        };
        self.run_frame(program, func, &mut frame)
    }

    fn call_method(
        &mut self,
        program: &CompiledProgram,
        this: &Value,
        name: &str,
        args: &[Value],
    ) -> Result<Value, ScriptError> {
        let member = this.get_property(name);
        match member {
            Value::Function(_) | Value::Native(_) => self.call_value(program, &member, this, args),
            _ => {
                if let Some(result) = stdlib::call_builtin_method(this, name, args) {
                    let value = result?;
                    self.account_alloc(&value)?;
                    Ok(value)
                } else {
                    Err(ScriptError::Type(format!(
                        "{}.{name} is not a function",
                        this.type_name()
                    )))
                }
            }
        }
    }

    fn construct(
        &mut self,
        program: &CompiledProgram,
        ctor: &Value,
        class: &str,
        args: &[Value],
    ) -> Result<Value, ScriptError> {
        match ctor {
            Value::Native(f) => {
                let this = Value::Object(Arc::new(RwLock::new(ObjectData::with_class(class))));
                self.account_alloc(&this)?;
                let result = f(&this, args)?;
                Ok(match result {
                    Value::Undefined => this,
                    other => other,
                })
            }
            Value::Function(_) => {
                let this = Value::Object(Arc::new(RwLock::new(ObjectData::with_class(class))));
                self.account_alloc(&this)?;
                let result = self.call_value(program, ctor, &this, args)?;
                Ok(match result {
                    Value::Object(_) | Value::Array(_) | Value::Bytes(_) => result,
                    _ => this,
                })
            }
            other => Err(ScriptError::Type(format!(
                "{} is not a constructor",
                other.type_name()
            ))),
        }
    }

    // ---- the dispatch loop -------------------------------------------------

    /// Runs `func` in `frame` until it returns or an error escapes it.
    ///
    /// Each instruction's weight is charged before it runs, so a limit that
    /// falls inside a superinstruction stops the script before any part of
    /// it has happened.  The instructions that cannot fail and call nothing
    /// — constants, slots, jumps, arithmetic and comparison of numbers —
    /// run right here on the frame's stack and build no `Result`; the rest
    /// go through [`Vm::step`], and a failure goes to the frame's unwinder,
    /// which finds it a handler (the loop goes on from there) or ends the
    /// frame with it.
    fn run_frame(
        &mut self,
        program: &CompiledProgram,
        func: &CompiledFunction,
        frame: &mut Frame,
    ) -> Result<Value, ScriptError> {
        let code = func.code.as_slice();
        loop {
            let op = &code[frame.ip];
            frame.ip += 1;
            let stepped = match self.charge(op.weight()) {
                Err(e) => Err(e),
                Ok(()) => match *op {
                    Op::Num(k) => {
                        frame.stack.push(Value::Number(cnum(func, k)));
                        continue;
                    }
                    Op::LoadSlot(i) => {
                        frame.stack.push(frame.slots[i as usize].clone());
                        continue;
                    }
                    Op::StoreSlot(i) | Op::DeclSlot(i) | Op::SetSlot(i) => {
                        frame.slots[i as usize] = frame.pop();
                        continue;
                    }
                    Op::SetSlotLast(i) => {
                        let v = frame.pop();
                        frame.slots[i as usize] = v.clone();
                        frame.last = v;
                        continue;
                    }
                    Op::Pop => {
                        frame.pop();
                        continue;
                    }
                    Op::Dup => {
                        let v = frame.top_mut().clone();
                        frame.stack.push(v);
                        continue;
                    }
                    Op::StoreLast => {
                        frame.last = frame.pop();
                        continue;
                    }
                    Op::SetLastUndef => {
                        frame.last = Value::Undefined;
                        continue;
                    }
                    Op::Jump(t) => {
                        frame.ip = t as usize;
                        continue;
                    }
                    Op::JumpIfFalse(t) => {
                        if !frame.pop().truthy() {
                            frame.ip = t as usize;
                        }
                        continue;
                    }
                    Op::JumpIfTrue(t) => {
                        if frame.pop().truthy() {
                            frame.ip = t as usize;
                        }
                        continue;
                    }
                    Op::JumpUnless { rel, target } => {
                        let r = frame.pop();
                        let l = frame.pop();
                        if !holds(rel, &l, &r) {
                            frame.ip = target as usize;
                        }
                        continue;
                    }
                    Op::JumpUnlessNum { rel, k, target } => {
                        let l = frame.pop();
                        if !holds(rel, &l, &Value::Number(cnum(func, k))) {
                            frame.ip = target as usize;
                        }
                        continue;
                    }
                    Op::JumpUnlessSlotNum {
                        slot,
                        rel,
                        k,
                        target,
                    } => {
                        let l = &frame.slots[slot as usize];
                        if !holds(rel, l, &Value::Number(cnum(func, k))) {
                            frame.ip = target as usize;
                        }
                        continue;
                    }
                    // Two numbers are combined where the left one lies; any
                    // other pair takes the path the interpreter takes.
                    Op::Bin(op) => {
                        let r = frame.pop();
                        let l = frame.top_mut();
                        match (&*l, &r) {
                            (Value::Number(a), Value::Number(b)) => {
                                *l = number_binary(op, *a, *b);
                                continue;
                            }
                            (l, r) => self.binary(op, l, r),
                        }
                        .map(|v| {
                            *frame.top_mut() = v;
                            None
                        })
                    }
                    Op::BinNum { op, k } => {
                        let k = cnum(func, k);
                        let l = frame.top_mut();
                        match &*l {
                            Value::Number(a) => {
                                *l = number_binary(op, *a, k);
                                continue;
                            }
                            l => self.binary(op, l, &Value::Number(k)),
                        }
                        .map(|v| {
                            *frame.top_mut() = v;
                            None
                        })
                    }
                    Op::SlotBinNum { slot, op, k } => {
                        let k = cnum(func, k);
                        match &frame.slots[slot as usize] {
                            Value::Number(a) => {
                                frame.stack.push(number_binary(op, *a, k));
                                continue;
                            }
                            l => self.binary(op, l, &Value::Number(k)),
                        }
                        .map(|v| {
                            frame.stack.push(v);
                            None
                        })
                    }
                    _ => self.step(program, func, frame, op),
                },
            };
            match stepped {
                Ok(None) => {}
                Ok(Some(v)) => return Ok(v),
                Err(e) => raise(frame, e)?,
            }
        }
    }

    /// Executes one of the instructions [`Vm::run_frame`] does not execute
    /// itself: those that can fail, allocate, call out or unwind.
    /// `Ok(Some(v))` completes the frame; `Err(e)` feeds its unwinder.
    fn step(
        &mut self,
        program: &CompiledProgram,
        func: &CompiledFunction,
        frame: &mut Frame,
        op: &Op,
    ) -> Result<Option<Value>, ScriptError> {
        match *op {
            // ---- constants and simple literals ----
            Op::Str(k) => frame.stack.push(Value::Str(cstr(func, k).clone())),
            Op::True => frame.stack.push(Value::Bool(true)),
            Op::False => frame.stack.push(Value::Bool(false)),
            Op::Null => frame.stack.push(Value::Null),
            Op::Undef => frame.stack.push(Value::Undefined),

            // ---- stack shuffling ----
            Op::Swap => {
                let n = frame.stack.len();
                frame.stack.swap(n - 1, n - 2);
            }

            // ---- variables ----
            Op::LoadName(k) => {
                let name = cstr(func, k);
                let v = frame
                    .scope()
                    .get(name)
                    .ok_or_else(|| ScriptError::Reference(name.to_string()))?;
                frame.stack.push(v);
            }
            Op::LoadNameSoft(k) => {
                let v = frame.scope().get(cstr(func, k)).unwrap_or(Value::Undefined);
                frame.stack.push(v);
            }
            Op::StoreName(k) => {
                let v = frame.pop();
                frame.scope().assign(cstr(func, k), v);
            }
            Op::DeclName(k) => {
                let v = frame.pop();
                frame.scope().declare(cstr(func, k), v);
            }
            Op::TypeofName(k) => {
                let name = frame
                    .scope()
                    .get(cstr(func, k))
                    .map(|v| v.type_name())
                    .unwrap_or("undefined");
                frame.stack.push(Value::string(name));
            }
            Op::PushScope => {
                let child = frame.scope().child();
                frame.scopes.push(child);
            }
            Op::PopScope => {
                frame.scopes.pop();
            }

            // ---- composite literals ----
            Op::MakeArray(n) => {
                let items = frame.stack.split_off(frame.stack.len() - n as usize);
                let v = Value::new_array(items);
                self.account_alloc(&v)?;
                frame.stack.push(v);
            }
            Op::MakeObject => frame.stack.push(Value::new_object()),
            Op::InitProp(k) => {
                let v = frame.pop();
                frame.top_mut().set_property(cstr(func, k), v)?;
            }
            Op::AccountTop => self.account_alloc(frame.top_mut())?,
            Op::MakeClosure(f) => {
                let compiled = &func.funcs[f as usize];
                let literal = compiled
                    .literal
                    .clone()
                    .expect("closure table entry has a literal");
                frame.stack.push(Value::Function(Arc::new(Closure {
                    literal,
                    scope: frame.scope().clone(),
                })));
            }

            // ---- property access ----
            Op::GetProp(k) => {
                let top = frame.top_mut();
                *top = top.get_property(cstr(func, k));
            }
            Op::SetProp(k) => {
                let obj = frame.pop();
                let v = frame.top_mut().clone();
                obj.set_property(cstr(func, k), v)?;
            }
            Op::GetIndex => {
                let idx = frame.pop();
                let top = frame.top_mut();
                *top = top.get_index(&idx);
            }
            Op::SetIndex => {
                let idx = frame.pop();
                let obj = frame.pop();
                let v = frame.top_mut().clone();
                obj.set_index(&idx, v)?;
            }
            Op::DelProp(k) => {
                let top = frame.top_mut();
                if let Value::Object(o) = &*top {
                    o.write().properties.remove(cstr(func, k).as_ref());
                }
                *top = Value::Bool(true);
            }
            Op::DelIndex => {
                let idx = frame.pop();
                let top = frame.top_mut();
                if let Value::Object(o) = &*top {
                    o.write().properties.remove(&idx.to_display_string());
                }
                *top = Value::Bool(true);
            }

            // ---- operators ----
            Op::Neg => {
                let top = frame.top_mut();
                *top = Value::Number(-top.to_number());
            }
            Op::Plus | Op::ToNumber => {
                let top = frame.top_mut();
                *top = Value::Number(top.to_number());
            }
            Op::Not => {
                let top = frame.top_mut();
                *top = Value::Bool(!top.truthy());
            }
            Op::Typeof => {
                let top = frame.top_mut();
                *top = Value::string(top.type_name());
            }

            // ---- control flow ----
            Op::LoopEnter {
                break_ip,
                continue_ip,
                keeps_header_scope,
                keeps_iter,
            } => frame.ctrl.push(Ctrl::Loop {
                break_ip,
                continue_ip,
                stack_h: frame.stack.len(),
                scope_d: frame.scopes.len(),
                iter_d: frame.iters.len(),
                keeps_header_scope,
                keeps_iter,
            }),
            Op::LoopExit => {
                frame.ctrl.pop();
            }
            Op::Break => unwind_break(frame, false)?,
            Op::Continue => unwind_break(frame, true)?,
            Op::ForInInit => {
                let v = frame.pop();
                frame.iters.push(ForInIter {
                    keys: forin_keys(&v),
                    idx: 0,
                });
            }
            Op::ForInNext(t) => {
                let iter = frame.iters.last_mut().expect("vm iterator stack empty");
                if iter.idx < iter.keys.len() {
                    let key = Value::string(&iter.keys[iter.idx]);
                    iter.idx += 1;
                    frame.stack.push(key);
                } else {
                    frame.iters.pop();
                    frame.ip = t as usize;
                }
            }

            // ---- calls ----
            Op::Call(argc) => {
                let callee = frame.pop();
                let args = frame.stack.split_off(frame.stack.len() - argc as usize);
                let v = self.call_value(program, &callee, &Value::Undefined, &args)?;
                frame.stack.push(v);
            }
            Op::CallMethod { name, argc } => {
                let this = frame.pop();
                let args = frame.stack.split_off(frame.stack.len() - argc as usize);
                let v = self.call_method(program, &this, cstr(func, name), &args)?;
                frame.stack.push(v);
            }
            Op::CallIndexMethod(argc) => {
                let name = frame.pop().to_display_string();
                let this = frame.pop();
                let args = frame.stack.split_off(frame.stack.len() - argc as usize);
                let v = self.call_method(program, &this, &name, &args)?;
                frame.stack.push(v);
            }
            Op::New { argc, class } => {
                let ctor = frame.pop();
                let args = frame.stack.split_off(frame.stack.len() - argc as usize);
                let v = self.construct(program, &ctor, cstr(func, class), &args)?;
                frame.stack.push(v);
            }
            Op::Return => {
                let v = frame.pop();
                return Ok(unwind_return(frame, v));
            }
            Op::Throw => {
                let v = frame.pop();
                return Err(ScriptError::Thrown(v.to_display_string()));
            }

            // ---- try / catch / finally ----
            Op::TryEnter {
                catch_ip,
                finally_ip,
                exit_ip,
            } => frame.ctrl.push(Ctrl::Try {
                catch_ip,
                finally_ip,
                exit_ip,
                stack_h: frame.stack.len(),
                scope_d: frame.scopes.len(),
                iter_d: frame.iters.len(),
                state: TryState::Body,
                pending: Pending::Value(Value::Undefined),
            }),
            Op::TryEndBody => {
                let last = frame.last.clone();
                if let Some(Ctrl::Try {
                    finally_ip,
                    state,
                    pending,
                    ..
                }) = frame.ctrl.last_mut()
                {
                    *pending = Pending::Value(last);
                    *state = TryState::Finally;
                    frame.ip = *finally_ip as usize;
                } else {
                    unreachable!("TryEndBody without a try entry");
                }
            }
            Op::TryExit => {
                let Some(Ctrl::Try { pending, .. }) = frame.ctrl.pop() else {
                    unreachable!("TryExit without a try entry");
                };
                match pending {
                    Pending::Value(v) => frame.last = v,
                    Pending::Err(e) => return Err(e),
                    Pending::Return(v) => return Ok(unwind_return(frame, v)),
                    Pending::Break => unwind_break(frame, false)?,
                    Pending::Continue => unwind_break(frame, true)?,
                }
            }

            // ---- statement value tracking ----
            Op::LoadLast => frame.stack.push(frame.last.clone()),
            Op::Fail(k) => {
                return Err(ScriptError::Type(cstr(func, k).to_string()));
            }

            Op::Num(_)
            | Op::LoadSlot(_)
            | Op::StoreSlot(_)
            | Op::DeclSlot(_)
            | Op::SetSlot(_)
            | Op::SetSlotLast(_)
            | Op::Pop
            | Op::Dup
            | Op::StoreLast
            | Op::SetLastUndef
            | Op::Jump(_)
            | Op::JumpIfFalse(_)
            | Op::JumpIfTrue(_)
            | Op::JumpUnless { .. }
            | Op::JumpUnlessNum { .. }
            | Op::JumpUnlessSlotNum { .. }
            | Op::Bin(_)
            | Op::BinNum { .. }
            | Op::SlotBinNum { .. } => unreachable!("{op:?} runs in the dispatch loop"),
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse_program;

    fn run(src: &str) -> Result<Value, ScriptError> {
        let program = parse_program(src)?;
        let compiled = compile(&program);
        let ctx = Context::new();
        stdlib::install(&ctx);
        let mut vm = Vm::new(&ctx);
        vm.run(&compiled)
    }

    fn run_ok(src: &str) -> Value {
        match run(src) {
            Ok(v) => v,
            Err(e) => panic!("vm error on {src:?}: {e}"),
        }
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run_ok("1 + 2 * 3"), Value::Number(7.0));
        assert_eq!(run_ok("(1 + 2) * 3"), Value::Number(9.0));
        assert_eq!(run_ok("10 % 3"), Value::Number(1.0));
        assert_eq!(run_ok("-3 + +2"), Value::Number(-1.0));
        assert_eq!(run_ok("'a' + 'b' + 1"), Value::string("ab1"));
    }

    #[test]
    fn variables_assignment_and_updates() {
        assert_eq!(run_ok("var x = 5; x += 3; x"), Value::Number(8.0));
        assert_eq!(run_ok("y = 7; y"), Value::Number(7.0)); // sloppy global
        assert_eq!(run_ok("var i = 5; i++; ++i; i"), Value::Number(7.0));
        assert_eq!(run_ok("var i = 5; i++"), Value::Number(5.0));
        assert_eq!(run_ok("var i = 5; ++i"), Value::Number(6.0));
        assert_eq!(run_ok("var o = {n: 1}; o.n++; o.n"), Value::Number(2.0));
        assert_eq!(run_ok("var a = [3]; a[0] += 4; a[0]"), Value::Number(7.0));
    }

    #[test]
    fn control_flow_loops() {
        assert_eq!(
            run_ok("var x = 0; if (1 < 2) { x = 10; } else { x = 20; } x"),
            Value::Number(10.0)
        );
        assert_eq!(
            run_ok("var s = 0; for (var i = 1; i <= 10; i++) { s += i; } s"),
            Value::Number(55.0)
        );
        assert_eq!(
            run_ok("var n = 0; while (n < 5) { n++; } n"),
            Value::Number(5.0)
        );
        assert_eq!(
            run_ok("var s = 0; for (var i = 0; i < 10; i++) { if (i == 3) continue; if (i == 6) break; s += i; } s"),
            Value::Number(12.0)
        );
    }

    #[test]
    fn functions_closures_recursion() {
        assert_eq!(
            run_ok("function add(a, b) { return a + b; } add(2, 3)"),
            Value::Number(5.0)
        );
        assert_eq!(
            run_ok("function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } fib(12)"),
            Value::Number(144.0)
        );
        assert_eq!(
            run_ok(
                "function counter() { var n = 0; return function() { n++; return n; }; } \
                 var c = counter(); c(); c(); c()"
            ),
            Value::Number(3.0)
        );
        assert_eq!(
            run_ok("var v = f(); function f() { return 9; } v"),
            Value::Number(9.0)
        );
        assert_eq!(
            run("function f() { return f(); } f()"),
            Err(ScriptError::StackOverflow)
        );
    }

    #[test]
    fn objects_arrays_for_in() {
        assert_eq!(
            run_ok("var o = { a: 1, b: { c: 2 } }; o.a + o.b.c"),
            Value::Number(3.0)
        );
        assert_eq!(
            run_ok("var a = [1, 2, 3]; a[1] = 20; a[0] + a[1] + a.length"),
            Value::Number(24.0)
        );
        assert_eq!(
            run_ok("var o = {a: 1}; delete o.a; typeof o.a"),
            Value::string("undefined")
        );
        assert_eq!(
            run_ok(
                "var o = {a: 1, b: 2, c: 3}; var keys = ''; for (var k in o) { keys += k; } keys"
            ),
            Value::string("abc")
        );
        assert_eq!(
            run_ok("var a = [10, 20]; var s = 0; for (var i in a) { s += a[i]; } s"),
            Value::Number(30.0)
        );
    }

    #[test]
    fn methods_and_constructors() {
        assert_eq!(
            run_ok("var o = { n: 2, double: function() { return this.n * 2; } }; o.double()"),
            Value::Number(4.0)
        );
        assert_eq!(
            run_ok("function Point(x, y) { this.x = x; this.y = y; } var p = new Point(3, 4); p.x + p.y"),
            Value::Number(7.0)
        );
        assert_eq!(
            run_ok("var b = new ByteArray(); b.append('abc'); b.length"),
            Value::Number(3.0)
        );
    }

    #[test]
    fn logical_and_ternary_short_circuit() {
        assert_eq!(run_ok("1 > 2 ? 'a' : 'b'"), Value::string("b"));
        assert_eq!(run_ok("null || 'fallback'"), Value::string("fallback"));
        assert_eq!(run_ok("0 && explode()"), Value::Number(0.0));
        assert_eq!(run_ok("'x' || explode()"), Value::string("x"));
    }

    #[test]
    fn try_catch_finally() {
        assert_eq!(
            run_ok("var r = ''; try { throw 'boom'; } catch (e) { r = e; } r"),
            Value::string("boom")
        );
        assert_eq!(
            run_ok("var r = 0; try { r = 1; } finally { r = r + 10; } r"),
            Value::Number(11.0)
        );
        assert_eq!(
            run_ok("var r = ''; try { undeclaredFn(); } catch (e) { r = 'caught'; } r"),
            Value::string("caught")
        );
        assert!(run("throw 'unhandled'").is_err());
        // finally runs on the return path, and the body's return value wins
        // over the finally block's own flow.
        assert_eq!(
            run_ok(
                "var log = ''; \
                 function f() { try { return 'body'; } finally { log += 'fin'; } } \
                 f() + ':' + log"
            ),
            Value::string("body:fin")
        );
        // break inside try routes through finally before leaving the loop.
        assert_eq!(
            run_ok(
                "var log = ''; \
                 for (var i = 0; i < 3; i++) { try { if (i == 1) break; log += i; } finally { log += 'f'; } } \
                 log"
            ),
            Value::string("0ff")
        );
    }

    #[test]
    fn errors_match_interpreter_surface() {
        assert!(matches!(run("missing + 1"), Err(ScriptError::Reference(_))));
        assert!(matches!(run("5()"), Err(ScriptError::Type(_))));
        assert!(matches!(
            run("var o = {}; o.nothing()"),
            Err(ScriptError::Type(_))
        ));
    }

    #[test]
    fn assignment_as_condition_value() {
        assert_eq!(
            run_ok(
                "var i = 0; var buff; var count = 0; \
                 function read() { i++; if (i > 3) return null; return 'chunk'; } \
                 while (buff = read()) { count++; } count"
            ),
            Value::Number(3.0)
        );
    }

    #[test]
    fn fuel_limit_stops_infinite_loops() {
        let program = parse_program("while (true) { }").unwrap();
        let compiled = compile(&program);
        let ctx = Context::with_limits(10_000, crate::context::DEFAULT_MEMORY_LIMIT);
        stdlib::install(&ctx);
        let mut vm = Vm::new(&ctx);
        assert_eq!(vm.run(&compiled), Err(ScriptError::FuelExhausted));
    }

    #[test]
    fn memory_limit_stops_string_doubling() {
        let program =
            parse_program("var s = 'xxxxxxxxxxxxxxxx'; while (true) { s = s + s; }").unwrap();
        let compiled = compile(&program);
        let ctx = Context::with_limits(u64::MAX / 2, 1024 * 1024);
        stdlib::install(&ctx);
        let mut vm = Vm::new(&ctx);
        assert!(matches!(
            vm.run(&compiled),
            Err(ScriptError::MemoryExceeded { .. }) | Err(ScriptError::FuelExhausted)
        ));
    }

    #[test]
    fn kill_flag_terminates_promptly() {
        let program = parse_program("while (true) { }").unwrap();
        let compiled = compile(&program);
        let ctx = Context::new();
        stdlib::install(&ctx);
        ctx.meter.kill();
        let mut vm = Vm::new(&ctx);
        assert_eq!(vm.run(&compiled), Err(ScriptError::Terminated));
    }

    #[test]
    fn resource_kill_skips_catch_but_runs_finally() {
        let program = parse_program(
            "var out = ''; \
             try { while (true) { } } catch (e) { out = 'caught'; } finally { out = out + 'fin'; } \
             out",
        )
        .unwrap();
        let compiled = compile(&program);
        let ctx = Context::with_limits(10_000, crate::context::DEFAULT_MEMORY_LIMIT);
        stdlib::install(&ctx);
        let mut vm = Vm::new(&ctx);
        // The fuel error must not be caught; it surfaces from the program.
        assert_eq!(vm.run(&compiled), Err(ScriptError::FuelExhausted));
    }

    #[test]
    fn call_function_entry_point_for_handlers() {
        let program = parse_program("onResponse = function() { return Count + 1; }").unwrap();
        let compiled = compile(&program);
        let ctx = Context::new();
        stdlib::install(&ctx);
        ctx.set_global("Count", Value::Number(41.0));
        let mut vm = Vm::new(&ctx);
        vm.run(&compiled).unwrap();
        let handler = ctx.get_global("onResponse").unwrap();
        let result = vm
            .call_function(&compiled, &handler, &Value::Undefined, &[])
            .unwrap();
        assert_eq!(result, Value::Number(42.0));
    }

    #[test]
    fn meter_observes_consumption() {
        let ctx = Context::new();
        stdlib::install(&ctx);
        let program =
            parse_program("var s = 0; for (var i = 0; i < 1000; i++) { s += i; } s").unwrap();
        let compiled = compile(&program);
        let mut vm = Vm::new(&ctx);
        vm.run(&compiled).unwrap();
        assert!(vm.fuel_used() > 1000);
        assert!(ctx.meter.steps() > 0);
    }

    #[test]
    fn slot_resolution_matches_dynamic_scoping() {
        // A use before its `var` in the same function resolves dynamically
        // (here: the sloppy global), not to the later slot.
        assert_eq!(
            run_ok(
                "function f() { x = 1; var x = 2; return x; } \
                 f(); typeof x + ':' + x"
            ),
            Value::string("number:1")
        );
        // Locals of a slotted function do not leak into the globals.
        assert_eq!(
            run_ok("function g(a) { var b = a * 2; return b; } g(4); typeof b"),
            Value::string("undefined")
        );
    }

    #[test]
    fn nested_loops_break_inner_only() {
        assert_eq!(
            run_ok(
                "var s = ''; \
                 for (var i = 0; i < 3; i++) { \
                   for (var j = 0; j < 3; j++) { if (j == 1) break; s += '' + i + j; } \
                 } s"
            ),
            Value::string("001020")
        );
    }

    #[test]
    fn program_value_is_last_expression() {
        assert_eq!(run_ok("1; 2; 3"), Value::Number(3.0));
        assert_eq!(run_ok("if (true) { 42 }"), Value::Number(42.0));
        assert_eq!(run_ok("var x = 1;"), Value::Undefined);
        assert_eq!(
            run_ok("try { 'tried' } finally { 'ignored' }"),
            Value::string("tried")
        );
    }

    // --- superinstructions: same fuel, same outcomes, same limits -------------

    use crate::compile::tests::{compile_fused, compile_unfused, corpus};

    /// The outcome of a run in comparable form, with the fuel it charged.
    fn outcome_and_fuel(
        program: &CompiledProgram,
        ctx: &Context,
    ) -> (Result<(&'static str, String), ScriptError>, u64) {
        let mut vm = Vm::new(ctx);
        let outcome = vm.run(program);
        (
            outcome.map(|v| (v.type_name(), v.to_display_string())),
            vm.fuel_used(),
        )
    }

    #[test]
    fn fused_code_charges_what_its_primitives_charge() {
        for source in corpus() {
            let run = |program: CompiledProgram| {
                let ctx = Context::new();
                stdlib::install(&ctx);
                outcome_and_fuel(&program, &ctx)
            };
            assert_eq!(
                run(compile_fused(source)),
                run(compile_unfused(source)),
                "{source:?}"
            );
        }
    }

    /// Runs a slotted loop whose every iteration leaves a trace in `log`.
    const TRACED_LOOP: &str = "var log = []; \
        function f() { \
            var acc = 0; \
            for (var i = 0; i < 6; i = i + 1) { acc = (acc + i * 3) % 7; log.push(acc); } \
            return acc; \
        } \
        f()";

    #[test]
    fn a_fuel_limit_inside_a_fused_instruction_stops_before_it() {
        let log_after = |program: &CompiledProgram, limit: u64| {
            let ctx = Context::with_limits(limit, crate::context::DEFAULT_MEMORY_LIMIT);
            stdlib::install(&ctx);
            let (outcome, _) = outcome_and_fuel(program, &ctx);
            let log = ctx.get_global("log").map(|log| log.to_display_string());
            (outcome, log)
        };
        let (fused, plain) = (compile_fused(TRACED_LOOP), compile_unfused(TRACED_LOOP));
        let ctx = Context::new();
        stdlib::install(&ctx);
        let (_, enough) = outcome_and_fuel(&fused, &ctx);
        let mut exhausted = 0;
        for limit in 0..=enough {
            let (outcome, log) = log_after(&fused, limit);
            // Whatever the unfused stream did within the limit, the fused
            // one did too: the same error and the same side effects.
            assert_eq!((outcome.clone(), log), log_after(&plain, limit), "{limit}");
            if limit < enough {
                assert_eq!(outcome, Err(ScriptError::FuelExhausted), "{limit}");
                exhausted += 1;
            }
        }
        assert!(exhausted > 100);
        assert_eq!(log_after(&fused, enough).0, Ok(("number", "3".to_string())));
    }

    #[test]
    fn a_resource_kill_inside_fused_code_skips_catch_and_enters_finally() {
        // A native that kills the pipeline from inside the handler, as the
        // resource manager would from its own thread, and notes what the
        // meter had been told by then.
        let ctx = Context::new();
        stdlib::install(&ctx);
        let steps_at_kill = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (meter, noted) = (ctx.meter.clone(), steps_at_kill.clone());
        ctx.set_global(
            "killMe",
            Value::native(move |_, _| {
                noted.store(meter.steps(), std::sync::atomic::Ordering::Relaxed);
                meter.kill();
                Ok(Value::Undefined)
            }),
        );
        let program = compile_fused(
            "var log = []; \
             function f() { \
                 var acc = 0; \
                 try { \
                     killMe(); \
                     for (var i = 0; i < 100000; i = i + 1) { acc = (acc + i * 3) % 9973; } \
                 } catch (e) { log.push('caught'); } finally { log.push('finally'); } \
                 return acc; \
             } \
             f()",
        );
        let mut vm = Vm::new(&ctx);
        assert_eq!(vm.run(&program), Err(ScriptError::Terminated));
        assert_eq!(
            ctx.get_global("log").unwrap().to_display_string(),
            "finally"
        );
        // Noticed at the first safepoint after the kill: within the interval
        // of the last report, give or take the one instruction (of weight at
        // most 4) whose charge reached it and which did not run.  The
        // `finally` code then ran on the next interval's budget.
        let noticed = ctx.meter.steps() - steps_at_kill.load(std::sync::atomic::Ordering::Relaxed);
        assert!(noticed < 2 * (SAFEPOINT_INTERVAL + 4), "{noticed}");

        // The same under a fuel limit: no budget is left for `finally` to
        // run on, in either engine; the error is not catchable.
        let ctx = Context::with_limits(2_000, crate::context::DEFAULT_MEMORY_LIMIT);
        stdlib::install(&ctx);
        ctx.set_global("killMe", Value::native(|_, _| Ok(Value::Undefined)));
        assert_eq!(Vm::new(&ctx).run(&program), Err(ScriptError::FuelExhausted));
        assert_eq!(ctx.get_global("log").unwrap().to_display_string(), "");
    }

    #[test]
    fn the_kill_flag_is_polled_every_safepoint_interval_of_fuel() {
        // Kill first, then count how far a fused loop gets: the first poll
        // is due once `SAFEPOINT_INTERVAL` units have been charged, and the
        // instruction whose weight reaches it is charged but does not run.
        let program = compile_fused(
            "function f() { var i = 0; while (i < 100000) { i = i + 3; } return i; } f()",
        );
        let ctx = Context::new();
        stdlib::install(&ctx);
        ctx.meter.kill();
        let mut vm = Vm::new(&ctx);
        assert_eq!(vm.run(&program), Err(ScriptError::Terminated));
        assert!(
            (SAFEPOINT_INTERVAL..SAFEPOINT_INTERVAL + 4).contains(&vm.fuel_used()),
            "{}",
            vm.fuel_used()
        );
    }

    #[test]
    fn arguments_is_made_and_accounted_only_for_bodies_that_mention_it() {
        assert_eq!(
            run_ok("function f() { return arguments.length + ':' + arguments[1]; } f(7, 8, 9)"),
            Value::string("3:8")
        );
        // A closure-holding (scoped) function sees it too.
        assert_eq!(
            run_ok(
                "function f() { var g = function() { return 1; }; return arguments[0] + g(); } f(4)"
            ),
            Value::Number(5.0)
        );
        let allocated = |source: &str| {
            let ctx = Context::new();
            stdlib::install(&ctx);
            let mut vm = Vm::new(&ctx);
            vm.run(&compile_fused(source)).unwrap();
            vm.memory_used()
        };
        assert_eq!(allocated("function f(a, b) { return a; } f(1, 2)"), 0);
        assert_eq!(
            allocated("function f(a, b) { return arguments.length; } f(1, 2)"),
            Value::new_array(vec![Value::Null; 2]).shallow_size()
        );
    }
}
