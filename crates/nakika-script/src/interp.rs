//! The NkScript tree-walking interpreter: the language's executable
//! specification and the oracle of `tests/differential.rs`.
//!
//! **Oracle only.**  No node, tool or other crate runs it (CI greps for the
//! name outside this crate); what ships is [`crate::Vm`].  It stays public
//! because the differential suite is an integration test and compares the
//! VM's values, errors and fuel to this module's, and the VM shares its
//! operator semantics (`binary_values`, `number_binary`).
//!
//! Executes the AST inside a [`Context`], charging fuel for every evaluation
//! step, accounting heap allocations, honouring the context's kill flag, and
//! bounding recursion depth — the sandbox properties Na Kika's resource
//! controls build on.

use crate::analysis;
use crate::ast::*;
use crate::context::{Context, Scope};
use crate::error::ScriptError;
use crate::stdlib;
use crate::value::{Closure, ObjectData, Value};
use parking_lot::RwLock;
use std::sync::Arc;

/// Maximum interpreter recursion depth (script call nesting).
///
/// Kept conservative because each script-level call consumes several Rust
/// stack frames in the tree-walking interpreter; event-handler code in Na
/// Kika is shallow by construction (the paper's largest example is a 180-line
/// annotation library).
pub(crate) const MAX_DEPTH: usize = 64;

/// How often (in steps) the interpreter polls the kill flag.
pub(crate) const SAFEPOINT_INTERVAL: u64 = 256;

/// Result of executing a statement: either keep going or unwind.
enum Flow {
    Normal(Value),
    Return(Value),
    Break,
    Continue,
}

/// The interpreter. Cheap to create; holds per-run accounting.
pub struct Interpreter<'c> {
    ctx: &'c Context,
    fuel_used: u64,
    /// Portion of `fuel_used` already reported to the context's meter.
    fuel_reported: u64,
    mem_used: usize,
    depth: usize,
}

impl<'c> Interpreter<'c> {
    /// Creates an interpreter bound to `ctx`.
    pub fn new(ctx: &'c Context) -> Interpreter<'c> {
        Interpreter {
            ctx,
            fuel_used: 0,
            fuel_reported: 0,
            mem_used: 0,
            depth: 0,
        }
    }

    /// Reports any not-yet-reported fuel to the context's meter, so the
    /// resource manager sees the full consumption of a handler execution.
    pub fn flush_meter(&mut self) {
        if self.fuel_used > self.fuel_reported {
            self.ctx
                .meter
                .add_steps(self.fuel_used - self.fuel_reported);
            self.fuel_reported = self.fuel_used;
        }
    }

    /// Fuel consumed so far in this run.
    pub fn fuel_used(&self) -> u64 {
        self.fuel_used
    }

    /// Approximate bytes allocated so far in this run.
    pub fn memory_used(&self) -> usize {
        self.mem_used
    }

    /// Runs a whole program in the context's global scope, returning the
    /// value of the last expression statement (or `undefined`).
    pub fn run(&mut self, program: &Program) -> Result<Value, ScriptError> {
        let scope = self.ctx.globals.clone();
        let mut last = Value::Undefined;
        // Hoist function declarations, as JavaScript does.
        for stmt in &program.body {
            if let Stmt::FunctionDecl { name, func } = stmt {
                let closure = self.make_closure(func.clone(), &scope);
                scope.declare(name, closure);
            }
        }
        for stmt in &program.body {
            let flow = self.exec(stmt, &scope);
            self.flush_meter();
            match flow? {
                Flow::Normal(v) => last = v,
                Flow::Return(v) => return Ok(v),
                Flow::Break | Flow::Continue => {
                    return Err(ScriptError::Type(
                        "break/continue outside of a loop".to_string(),
                    ))
                }
            }
        }
        Ok(last)
    }

    /// Calls a script or native function value with an explicit `this` and
    /// arguments: the oracle for [`crate::Vm::call_function`], which is how
    /// Na Kika's pipeline invokes `onRequest` / `onResponse` event handlers.
    pub fn call_function(
        &mut self,
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
                let scope = closure.scope.child();
                for (i, param) in closure.literal.params.iter().enumerate() {
                    scope.declare(param, args.get(i).cloned().unwrap_or(Value::Undefined));
                }
                scope.declare("this", this.clone());
                // Made, and charged to the memory limit, only for a body
                // that can see it — exactly as the VM does.
                if analysis::function_mentions_ident(&closure.literal, "arguments") {
                    let arguments = Value::new_array(args.to_vec());
                    self.account_alloc(&arguments)?;
                    scope.declare("arguments", arguments);
                }
                self.depth += 1;
                // Hoist nested function declarations.
                for stmt in &closure.literal.body {
                    if let Stmt::FunctionDecl { name, func } = stmt {
                        let f = self.make_closure(func.clone(), &scope);
                        scope.declare(name, f);
                    }
                }
                let mut result = Value::Undefined;
                for stmt in &closure.literal.body {
                    match self.exec(stmt, &scope) {
                        Ok(Flow::Normal(_)) => {}
                        Ok(Flow::Return(v)) => {
                            result = v;
                            break;
                        }
                        Ok(Flow::Break) | Ok(Flow::Continue) => {
                            self.depth -= 1;
                            return Err(ScriptError::Type(
                                "break/continue outside of a loop".to_string(),
                            ));
                        }
                        Err(e) => {
                            self.depth -= 1;
                            return Err(e);
                        }
                    }
                }
                self.depth -= 1;
                Ok(result)
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

    // ---- accounting --------------------------------------------------------

    fn charge(&mut self, steps: u64) -> Result<(), ScriptError> {
        self.fuel_used += steps;
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

    fn make_closure(&mut self, literal: Arc<FunctionLiteral>, scope: &Scope) -> Value {
        Value::Function(Arc::new(Closure {
            literal,
            scope: scope.clone(),
        }))
    }

    // ---- statements --------------------------------------------------------

    fn exec(&mut self, stmt: &Stmt, scope: &Scope) -> Result<Flow, ScriptError> {
        self.charge(1)?;
        match stmt {
            Stmt::Empty => Ok(Flow::Normal(Value::Undefined)),
            Stmt::Expr(e) => Ok(Flow::Normal(self.eval(e, scope)?)),
            Stmt::VarDecl { name, init } => {
                let value = match init {
                    Some(e) => self.eval(e, scope)?,
                    None => Value::Undefined,
                };
                scope.declare(name, value);
                Ok(Flow::Normal(Value::Undefined))
            }
            Stmt::FunctionDecl { name, func } => {
                let closure = self.make_closure(func.clone(), scope);
                scope.declare(name, closure);
                Ok(Flow::Normal(Value::Undefined))
            }
            Stmt::Return(e) => {
                let value = match e {
                    Some(e) => self.eval(e, scope)?,
                    None => Value::Undefined,
                };
                Ok(Flow::Return(value))
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let branch = if self.eval(cond, scope)?.truthy() {
                    then_branch
                } else {
                    else_branch
                };
                self.exec_block(branch, &scope.child())
            }
            Stmt::While { cond, body } => {
                loop {
                    if !self.eval(cond, scope)?.truthy() {
                        break;
                    }
                    match self.exec_block(body, &scope.child())? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal(_) | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal(Value::Undefined))
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                let loop_scope = scope.child();
                if let Some(init) = init {
                    self.exec(init, &loop_scope)?;
                }
                loop {
                    if let Some(cond) = cond {
                        if !self.eval(cond, &loop_scope)?.truthy() {
                            break;
                        }
                    }
                    match self.exec_block(body, &loop_scope.child())? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal(_) | Flow::Continue => {}
                    }
                    if let Some(update) = update {
                        self.eval(update, &loop_scope)?;
                    }
                }
                Ok(Flow::Normal(Value::Undefined))
            }
            Stmt::ForIn { var, object, body } => {
                let obj = self.eval(object, scope)?;
                let keys: Vec<String> = match &obj {
                    Value::Object(o) => o.read().properties.keys().cloned().collect(),
                    Value::Array(a) => (0..a.read().len()).map(|i| i.to_string()).collect(),
                    Value::Str(s) => (0..s.chars().count()).map(|i| i.to_string()).collect(),
                    _ => Vec::new(),
                };
                let loop_scope = scope.child();
                for key in keys {
                    loop_scope.declare(var, Value::string(&key));
                    match self.exec_block(body, &loop_scope.child())? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal(_) | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal(Value::Undefined))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Throw(e) => {
                let value = self.eval(e, scope)?;
                Err(ScriptError::Thrown(value.to_display_string()))
            }
            Stmt::Try {
                body,
                catch_name,
                catch_body,
                finally_body,
            } => {
                let result = self.exec_block(body, &scope.child());
                let outcome = match result {
                    Err(err) if !err.is_resource_kill() && catch_name.is_some() => {
                        let catch_scope = scope.child();
                        let message = match &err {
                            ScriptError::Thrown(m) => m.clone(),
                            other => other.to_string(),
                        };
                        catch_scope.declare(catch_name.as_ref().unwrap(), Value::string(message));
                        self.exec_block(catch_body, &catch_scope)
                    }
                    other => other,
                };
                // Finally always runs; its error (if any) wins only when the
                // body succeeded.
                let finally_result = self.exec_block(finally_body, &scope.child());
                match (outcome, finally_result) {
                    (Err(e), _) => Err(e),
                    (Ok(flow), Ok(_)) => Ok(flow),
                    (Ok(_), Err(e)) => Err(e),
                }
            }
            // Bare blocks (and the parser's desugaring of multi-declarator
            // `var a = 1, b = 2`) run in the *enclosing* scope: NkScript's
            // `var` is function-scoped, as in JavaScript.
            Stmt::Block(body) => self.exec_block(body, scope),
        }
    }

    fn exec_block(&mut self, body: &[Stmt], scope: &Scope) -> Result<Flow, ScriptError> {
        for stmt in body {
            if let Stmt::FunctionDecl { name, func } = stmt {
                let closure = self.make_closure(func.clone(), scope);
                scope.declare(name, closure);
            }
        }
        let mut last = Value::Undefined;
        for stmt in body {
            match self.exec(stmt, scope)? {
                Flow::Normal(v) => last = v,
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal(last))
    }

    // ---- expressions -------------------------------------------------------

    fn eval(&mut self, expr: &Expr, scope: &Scope) -> Result<Value, ScriptError> {
        self.charge(1)?;
        match expr {
            Expr::Number(n) => Ok(Value::Number(*n)),
            Expr::Str(s) => Ok(Value::string(s)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Undefined => Ok(Value::Undefined),
            Expr::Ident(name) => scope
                .get(name)
                .ok_or_else(|| ScriptError::Reference(name.clone())),
            Expr::Array(items) => {
                let mut values = Vec::with_capacity(items.len());
                for item in items {
                    values.push(self.eval(item, scope)?);
                }
                let v = Value::new_array(values);
                self.account_alloc(&v)?;
                Ok(v)
            }
            Expr::Object(props) => {
                let obj = Value::new_object();
                for (key, value_expr) in props {
                    let value = self.eval(value_expr, scope)?;
                    obj.set_property(key, value)?;
                }
                self.account_alloc(&obj)?;
                Ok(obj)
            }
            Expr::Function(literal) => Ok(self.make_closure(literal.clone(), scope)),
            Expr::Unary { op, expr } => {
                let v = self.eval(expr, scope)?;
                Ok(match op {
                    UnaryOp::Neg => Value::Number(-v.to_number()),
                    UnaryOp::Plus => Value::Number(v.to_number()),
                    UnaryOp::Not => Value::Bool(!v.truthy()),
                })
            }
            Expr::Binary { op, left, right } => {
                let l = self.eval(left, scope)?;
                let r = self.eval(right, scope)?;
                self.binary(*op, l, r)
            }
            Expr::Logical {
                is_and,
                left,
                right,
            } => {
                let l = self.eval(left, scope)?;
                if *is_and {
                    if !l.truthy() {
                        return Ok(l);
                    }
                } else if l.truthy() {
                    return Ok(l);
                }
                self.eval(right, scope)
            }
            Expr::Conditional {
                cond,
                then,
                otherwise,
            } => {
                if self.eval(cond, scope)?.truthy() {
                    self.eval(then, scope)
                } else {
                    self.eval(otherwise, scope)
                }
            }
            Expr::Assign { target, op, value } => {
                let mut new_value = self.eval(value, scope)?;
                if let Some(op) = op {
                    let current = self.eval_target(target, scope)?;
                    new_value = self.binary(*op, current, new_value)?;
                }
                self.assign_target(target, new_value.clone(), scope)?;
                Ok(new_value)
            }
            Expr::Member { object, property } => {
                let obj = self.eval(object, scope)?;
                Ok(obj.get_property(property))
            }
            Expr::Index { object, index } => {
                let obj = self.eval(object, scope)?;
                let idx = self.eval(index, scope)?;
                Ok(obj.get_index(&idx))
            }
            Expr::Call { callee, args } => {
                let mut arg_values = Vec::with_capacity(args.len());
                for a in args {
                    arg_values.push(self.eval(a, scope)?);
                }
                match callee.as_ref() {
                    Expr::Member { object, property } => {
                        let this = self.eval(object, scope)?;
                        self.call_method(&this, property, &arg_values)
                    }
                    Expr::Index { object, index } => {
                        let this = self.eval(object, scope)?;
                        let name = self.eval(index, scope)?.to_display_string();
                        self.call_method(&this, &name, &arg_values)
                    }
                    _ => {
                        let f = self.eval(callee, scope)?;
                        self.call_function(&f, &Value::Undefined, &arg_values)
                    }
                }
            }
            Expr::New { callee, args } => {
                let mut arg_values = Vec::with_capacity(args.len());
                for a in args {
                    arg_values.push(self.eval(a, scope)?);
                }
                let ctor = self.eval(callee, scope)?;
                let class = match callee.as_ref() {
                    Expr::Ident(name) => name.clone(),
                    Expr::Member { property, .. } => property.clone(),
                    _ => "Object".to_string(),
                };
                match &ctor {
                    Value::Native(f) => {
                        // Native constructors receive a tagged empty object as
                        // `this` and may return their own value; if they return
                        // undefined the tagged object is the result.
                        let this =
                            Value::Object(Arc::new(RwLock::new(ObjectData::with_class(&class))));
                        self.account_alloc(&this)?;
                        let result = f(&this, &arg_values)?;
                        Ok(match result {
                            Value::Undefined => this,
                            other => other,
                        })
                    }
                    Value::Function(_) => {
                        let this =
                            Value::Object(Arc::new(RwLock::new(ObjectData::with_class(&class))));
                        self.account_alloc(&this)?;
                        let result = self.call_function(&ctor, &this, &arg_values)?;
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
            Expr::Typeof(inner) => {
                // `typeof undeclared` must not throw.
                if let Expr::Ident(name) = inner.as_ref() {
                    return Ok(Value::string(
                        scope
                            .get(name)
                            .map(|v| v.type_name())
                            .unwrap_or("undefined"),
                    ));
                }
                let v = self.eval(inner, scope)?;
                Ok(Value::string(v.type_name()))
            }
            Expr::Delete(inner) => match inner.as_ref() {
                Expr::Member { object, property } => {
                    let obj = self.eval(object, scope)?;
                    if let Value::Object(o) = obj {
                        o.write().properties.remove(property);
                    }
                    Ok(Value::Bool(true))
                }
                Expr::Index { object, index } => {
                    let obj = self.eval(object, scope)?;
                    let key = self.eval(index, scope)?.to_display_string();
                    if let Value::Object(o) = obj {
                        o.write().properties.remove(&key);
                    }
                    Ok(Value::Bool(true))
                }
                _ => Ok(Value::Bool(false)),
            },
            Expr::Update {
                target,
                delta,
                prefix,
            } => {
                let old = self.eval_target(target, scope)?.to_number();
                let new = old + delta;
                self.assign_target(target, Value::Number(new), scope)?;
                Ok(Value::Number(if *prefix { new } else { old }))
            }
        }
    }

    /// Calls `this.name(args)`, falling back to built-in methods on
    /// primitives (strings, arrays, byte arrays) when the property lookup
    /// yields nothing callable.
    fn call_method(
        &mut self,
        this: &Value,
        name: &str,
        args: &[Value],
    ) -> Result<Value, ScriptError> {
        let member = this.get_property(name);
        match member {
            Value::Function(_) | Value::Native(_) => self.call_function(&member, this, args),
            _ => {
                if let Some(result) = stdlib::call_builtin_method(this, name, args) {
                    let value = result?;
                    self.account_alloc(&value)?;
                    if let Value::Bytes(_) | Value::Str(_) = &value {
                        self.ctx.meter.add_transferred(0);
                    }
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

    fn eval_target(&mut self, target: &Expr, scope: &Scope) -> Result<Value, ScriptError> {
        match target {
            Expr::Ident(name) => Ok(scope.get(name).unwrap_or(Value::Undefined)),
            _ => self.eval(target, scope),
        }
    }

    fn assign_target(
        &mut self,
        target: &Expr,
        value: Value,
        scope: &Scope,
    ) -> Result<(), ScriptError> {
        match target {
            Expr::Ident(name) => {
                scope.assign(name, value);
                Ok(())
            }
            Expr::Member { object, property } => {
                let obj = self.eval(object, scope)?;
                obj.set_property(property, value)
            }
            Expr::Index { object, index } => {
                let obj = self.eval(object, scope)?;
                let idx = self.eval(index, scope)?;
                obj.set_index(&idx, value)
            }
            other => Err(ScriptError::Type(format!(
                "invalid assignment target: {other:?}"
            ))),
        }
    }

    fn binary(&mut self, op: BinaryOp, l: Value, r: Value) -> Result<Value, ScriptError> {
        let (result, needs_account) = binary_values(op, &l, &r);
        if needs_account {
            self.account_alloc(&result)?;
        }
        Ok(result)
    }
}

/// Applies a binary operator to two values.  Shared by the tree-walking
/// interpreter and the bytecode VM so the two engines cannot drift.  The
/// returned flag is true when the result is a fresh heap allocation (string
/// concatenation) that the caller must charge to its memory accounting.
pub(crate) fn binary_values(op: BinaryOp, l: &Value, r: &Value) -> (Value, bool) {
    if let (Value::Number(a), Value::Number(b)) = (l, r) {
        return (number_binary(op, *a, *b), false);
    }
    let result = match op {
        BinaryOp::Add => {
            if matches!(l, Value::Str(_) | Value::Object(_) | Value::Array(_))
                || matches!(r, Value::Str(_) | Value::Object(_) | Value::Array(_))
            {
                let s = format!("{}{}", l.to_display_string(), r.to_display_string());
                return (Value::string(s), true);
            }
            Value::Number(l.to_number() + r.to_number())
        }
        BinaryOp::Sub => Value::Number(l.to_number() - r.to_number()),
        BinaryOp::Mul => Value::Number(l.to_number() * r.to_number()),
        BinaryOp::Div => Value::Number(l.to_number() / r.to_number()),
        BinaryOp::Rem => Value::Number(l.to_number() % r.to_number()),
        BinaryOp::Eq => Value::Bool(l.loose_equals(r)),
        BinaryOp::NotEq => Value::Bool(!l.loose_equals(r)),
        BinaryOp::StrictEq => Value::Bool(l.strict_equals(r)),
        BinaryOp::StrictNotEq => Value::Bool(!l.strict_equals(r)),
        BinaryOp::Lt | BinaryOp::Gt | BinaryOp::Le | BinaryOp::Ge => {
            let out = match (l, r) {
                (Value::Str(a), Value::Str(b)) => {
                    compare(op, a.as_ref().cmp(b.as_ref()) as i8 as f64, 0.0)
                }
                _ => compare(op, l.to_number(), r.to_number()),
            };
            Value::Bool(out)
        }
        BinaryOp::In => {
            let key = l.to_display_string();
            match r {
                Value::Object(o) => Value::Bool(o.read().properties.contains_key(&key)),
                Value::Array(a) => {
                    let idx: Option<usize> = key.parse().ok();
                    Value::Bool(idx.map(|i| i < a.read().len()).unwrap_or(false))
                }
                _ => Value::Bool(false),
            }
        }
    };
    (result, false)
}

/// `a op b` for two numbers: what [`binary_values`] answers for them, and
/// what the VM computes without taking the operands off its stack.
#[inline]
pub(crate) fn number_binary(op: BinaryOp, a: f64, b: f64) -> Value {
    match op {
        BinaryOp::Add => Value::Number(a + b),
        BinaryOp::Sub => Value::Number(a - b),
        BinaryOp::Mul => Value::Number(a * b),
        BinaryOp::Div => Value::Number(a / b),
        BinaryOp::Rem => Value::Number(a % b),
        BinaryOp::Eq | BinaryOp::StrictEq => Value::Bool(a == b),
        BinaryOp::NotEq | BinaryOp::StrictNotEq => Value::Bool(a != b),
        BinaryOp::Lt | BinaryOp::Gt | BinaryOp::Le | BinaryOp::Ge => Value::Bool(compare(op, a, b)),
        // A number has no properties to look a key up in.
        BinaryOp::In => Value::Bool(false),
    }
}

#[inline]
fn compare(op: BinaryOp, a: f64, b: f64) -> bool {
    match op {
        BinaryOp::Lt => a < b,
        BinaryOp::Gt => a > b,
        BinaryOp::Le => a <= b,
        BinaryOp::Ge => a >= b,
        _ => unreachable!("compare called with non-relational operator"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::stdlib;

    fn run(src: &str) -> Result<Value, ScriptError> {
        let program = parse_program(src)?;
        let ctx = Context::new();
        stdlib::install(&ctx);
        let mut interp = Interpreter::new(&ctx);
        interp.run(&program)
    }

    fn run_ok(src: &str) -> Value {
        run(src).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run_ok("1 + 2 * 3"), Value::Number(7.0));
        assert_eq!(run_ok("(1 + 2) * 3"), Value::Number(9.0));
        assert_eq!(run_ok("10 % 3"), Value::Number(1.0));
        assert_eq!(run_ok("7 / 2"), Value::Number(3.5));
        assert_eq!(run_ok("-3 + +2"), Value::Number(-1.0));
    }

    #[test]
    fn string_concatenation() {
        assert_eq!(run_ok("'a' + 'b' + 1"), Value::string("ab1"));
        assert_eq!(run_ok("1 + 2 + 'x'"), Value::string("3x"));
    }

    #[test]
    fn variables_and_assignment() {
        assert_eq!(run_ok("var x = 5; x += 3; x"), Value::Number(8.0));
        assert_eq!(
            run_ok("var x = 5; x *= 2; x -= 1; x /= 3; x"),
            Value::Number(3.0)
        );
        assert_eq!(run_ok("y = 7; y"), Value::Number(7.0)); // sloppy global
    }

    #[test]
    fn control_flow() {
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
            Value::Number(0.0 + 1.0 + 2.0 + 4.0 + 5.0)
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
        // function hoisting
        assert_eq!(
            run_ok("var v = f(); function f() { return 9; } v"),
            Value::Number(9.0)
        );
    }

    #[test]
    fn objects_arrays_members() {
        assert_eq!(
            run_ok("var o = { a: 1, b: { c: 2 } }; o.a + o.b.c"),
            Value::Number(3.0)
        );
        assert_eq!(
            run_ok("var a = [1, 2, 3]; a[1] = 20; a[0] + a[1] + a.length"),
            Value::Number(24.0)
        );
        assert_eq!(
            run_ok("var o = {}; o.x = 5; o['y'] = 6; o.x + o.y"),
            Value::Number(11.0)
        );
        assert_eq!(
            run_ok("var o = {a: 1}; delete o.a; typeof o.a"),
            Value::string("undefined")
        );
    }

    #[test]
    fn for_in_iterates_keys() {
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
    fn methods_use_this() {
        assert_eq!(
            run_ok("var o = { n: 2, double: function() { return this.n * 2; } }; o.double()"),
            Value::Number(4.0)
        );
    }

    #[test]
    fn constructors() {
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
    fn ternary_logical_shortcircuit() {
        assert_eq!(run_ok("1 > 2 ? 'a' : 'b'"), Value::string("b"));
        assert_eq!(run_ok("null || 'fallback'"), Value::string("fallback"));
        assert_eq!(run_ok("0 && explode()"), Value::Number(0.0));
        assert_eq!(run_ok("'x' || explode()"), Value::string("x"));
    }

    #[test]
    fn typeof_and_equality() {
        assert_eq!(run_ok("typeof 1"), Value::string("number"));
        assert_eq!(run_ok("typeof 'a'"), Value::string("string"));
        assert_eq!(
            run_ok("typeof undefinedVariable"),
            Value::string("undefined")
        );
        assert_eq!(run_ok("typeof function(){}"), Value::string("function"));
        assert_eq!(run_ok("1 == '1'"), Value::Bool(true));
        assert_eq!(run_ok("1 === '1'"), Value::Bool(false));
        assert_eq!(run_ok("null == undefined"), Value::Bool(true));
        assert_eq!(run_ok("null === undefined"), Value::Bool(false));
        assert_eq!(run_ok("'b' in {a:1, b:2}"), Value::Bool(true));
        assert_eq!(run_ok("'c' in {a:1, b:2}"), Value::Bool(false));
    }

    #[test]
    fn update_expressions() {
        assert_eq!(run_ok("var i = 5; i++; ++i; i"), Value::Number(7.0));
        assert_eq!(run_ok("var i = 5; i++"), Value::Number(5.0));
        assert_eq!(run_ok("var i = 5; ++i"), Value::Number(6.0));
        assert_eq!(run_ok("var o = {n: 1}; o.n++; o.n"), Value::Number(2.0));
    }

    #[test]
    fn try_catch_finally_and_throw() {
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
    }

    #[test]
    fn reference_errors() {
        assert!(matches!(run("missing + 1"), Err(ScriptError::Reference(_))));
        assert!(matches!(run("5()"), Err(ScriptError::Type(_))));
        assert!(matches!(
            run("var o = {}; o.nothing()"),
            Err(ScriptError::Type(_))
        ));
    }

    #[test]
    fn assignment_as_condition_value() {
        // The Figure-2 idiom: while (buff = read()) { ... }
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
        let ctx = Context::with_limits(10_000, crate::context::DEFAULT_MEMORY_LIMIT);
        stdlib::install(&ctx);
        let mut interp = Interpreter::new(&ctx);
        assert_eq!(interp.run(&program), Err(ScriptError::FuelExhausted));
    }

    #[test]
    fn memory_limit_stops_string_doubling() {
        // The paper's misbehaving script: repeatedly doubling a string.
        let program =
            parse_program("var s = 'xxxxxxxxxxxxxxxx'; while (true) { s = s + s; }").unwrap();
        let ctx = Context::with_limits(u64::MAX / 2, 1024 * 1024);
        stdlib::install(&ctx);
        let mut interp = Interpreter::new(&ctx);
        assert!(matches!(
            interp.run(&program),
            Err(ScriptError::MemoryExceeded { .. }) | Err(ScriptError::FuelExhausted)
        ));
    }

    #[test]
    fn kill_flag_terminates_promptly() {
        let program = parse_program("while (true) { }").unwrap();
        let ctx = Context::new();
        stdlib::install(&ctx);
        ctx.meter.kill();
        let mut interp = Interpreter::new(&ctx);
        assert_eq!(interp.run(&program), Err(ScriptError::Terminated));
    }

    #[test]
    fn recursion_depth_is_bounded() {
        assert_eq!(
            run("function f() { return f(); } f()"),
            Err(ScriptError::StackOverflow)
        );
    }

    #[test]
    fn call_function_entry_point_for_handlers() {
        let program = parse_program("onResponse = function() { return Count + 1; }").unwrap();
        let ctx = Context::new();
        stdlib::install(&ctx);
        ctx.set_global("Count", Value::Number(41.0));
        let mut interp = Interpreter::new(&ctx);
        interp.run(&program).unwrap();
        let handler = ctx.get_global("onResponse").unwrap();
        let result = interp
            .call_function(&handler, &Value::Undefined, &[])
            .unwrap();
        assert_eq!(result, Value::Number(42.0));
    }

    #[test]
    fn meter_observes_consumption() {
        let ctx = Context::new();
        stdlib::install(&ctx);
        let program =
            parse_program("var s = 0; for (var i = 0; i < 1000; i++) { s += i; } s").unwrap();
        let mut interp = Interpreter::new(&ctx);
        interp.run(&program).unwrap();
        assert!(interp.fuel_used() > 1000);
        assert!(ctx.meter.steps() > 0);
    }
}
