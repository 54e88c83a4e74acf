//! Differential tests: the tree-walking interpreter and the bytecode VM must
//! agree on every observable outcome — values, thrown errors, and the
//! resource-kill error surface (fuel exhaustion, memory limits, the
//! asynchronous kill flag).
//!
//! Three layers:
//!
//! 1. A fixed corpus of semantically tricky programs (scope edge cases,
//!    `finally` flow precedence, double evaluation in compound member
//!    assignment, statement-value propagation) asserted to produce *equal*
//!    `Result<Value, ScriptError>` on both engines.
//! 2. A property test generating random well-formed NkScript programs from a
//!    seed and asserting outcome equality.  Generated programs funnel every
//!    observation into a string accumulator `out` so the compared value is a
//!    deep, order-sensitive trace of execution, not just a final scalar.
//! 3. Handlers registered by one run and called later through
//!    `call_function` — the only way a node runs script functions — with a
//!    captured scope that was written in between, the `this` the pipeline
//!    passes, `arguments`, and a fuel limit met inside `try`/`finally`.
//!
//! Fuel *counts* are allowed to differ between the engines (per-AST-node vs
//! per-instruction), so the generated programs use bounded loops under a
//! generous fuel limit; resource-kill parity is asserted by dedicated tests
//! with deterministic workloads.  What the VM charges is pinned on its own:
//! a script's fuel is the number of primitive instructions it executes,
//! however the compiler fused them, so the counts recorded before there
//! were superinstructions must never move.

use nakika_script::bytecode::{CompiledFunction, Op};
use nakika_script::context::DEFAULT_MEMORY_LIMIT;
use nakika_script::{
    compile, parse_program, stdlib, CompiledProgram, Context, Interpreter, ScriptError, Value, Vm,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn run_interp(src: &str, fuel: u64, memory: usize) -> Result<Value, ScriptError> {
    let program = parse_program(src)?;
    let ctx = Context::with_limits(fuel, memory);
    stdlib::install(&ctx);
    let mut interp = Interpreter::new(&ctx);
    interp.run(&program)
}

fn run_vm(src: &str, fuel: u64, memory: usize) -> Result<Value, ScriptError> {
    let program = parse_program(src)?;
    let compiled = compile(&program);
    let ctx = Context::with_limits(fuel, memory);
    stdlib::install(&ctx);
    let mut vm = Vm::new(&ctx);
    vm.run(&compiled)
}

const GENEROUS_FUEL: u64 = 50_000_000;

/// Semantically tricky programs (scope edge cases, `finally` flow
/// precedence, double evaluation in compound member assignment,
/// statement-value propagation); shared with the compiler's unit tests.
const CORPUS: &[&str] = include!("corpus/fixed.rs");

/// Collapses a run outcome to a comparable form: type tag plus display
/// string for values (so `NaN == NaN` and structural equality applies to
/// identical programs rather than `Arc` identity), the error itself
/// otherwise.
fn outcome(r: Result<Value, ScriptError>) -> Result<(String, String), ScriptError> {
    r.map(|v| (v.type_name().to_string(), v.to_display_string()))
}

fn assert_engines_agree(src: &str) {
    let i = outcome(run_interp(src, GENEROUS_FUEL, DEFAULT_MEMORY_LIMIT));
    let v = outcome(run_vm(src, GENEROUS_FUEL, DEFAULT_MEMORY_LIMIT));
    assert_eq!(i, v, "engines disagree on {src:?}");
}

#[test]
fn fixed_corpus_agrees() {
    for src in CORPUS {
        assert_engines_agree(src);
    }
}

#[test]
fn fuel_exhaustion_agrees() {
    for src in [
        "while (true) { }",
        "for (var i = 0; ; i++) { i; }",
        "function f() { try { while (true) { } } catch (e) { return 'caught'; } } f()",
    ] {
        let i = run_interp(src, 10_000, DEFAULT_MEMORY_LIMIT);
        let v = run_vm(src, 10_000, DEFAULT_MEMORY_LIMIT);
        assert_eq!(i, Err(ScriptError::FuelExhausted), "interp on {src:?}");
        assert_eq!(v, Err(ScriptError::FuelExhausted), "vm on {src:?}");
    }
}

#[test]
fn memory_limit_agrees() {
    let src = "var s = 'xxxxxxxxxxxxxxxx'; while (true) { s = s + s; }";
    for result in [
        run_interp(src, u64::MAX / 2, 1 << 20),
        run_vm(src, u64::MAX / 2, 1 << 20),
    ] {
        assert!(
            matches!(result, Err(ScriptError::MemoryExceeded { .. })),
            "expected memory kill, got {result:?}"
        );
    }
}

#[test]
fn kill_flag_abort_agrees() {
    let src = "var n = 0; while (true) { n++; }";
    let program = parse_program(src).unwrap();

    let ctx = Context::new();
    stdlib::install(&ctx);
    ctx.meter.kill();
    let mut interp = Interpreter::new(&ctx);
    assert_eq!(interp.run(&program), Err(ScriptError::Terminated));

    let compiled = compile(&program);
    let ctx = Context::new();
    stdlib::install(&ctx);
    ctx.meter.kill();
    let mut vm = Vm::new(&ctx);
    assert_eq!(vm.run(&compiled), Err(ScriptError::Terminated));
}

/// The fuel the VM charges for `src`, and the value it computes.
fn vm_fuel(src: &str) -> (u64, String) {
    let compiled = compile(&parse_program(src).unwrap());
    let ctx = Context::new();
    stdlib::install(&ctx);
    let mut vm = Vm::new(&ctx);
    let value = vm.run(&compiled).unwrap().to_display_string();
    (vm.fuel_used(), value)
}

#[test]
fn vm_fuel_is_what_the_unfused_instruction_stream_charged() {
    // Recorded at `bc0999c`, the last commit whose VM ran one primitive
    // instruction per unit of fuel.  A fused instruction charges the
    // primitives it replaced, so none of these may ever change.
    let pinned: &[(&str, u64, &str)] = &[
        ("var s = 0; for (var i = 0; i < 10; i++) { if (i == 3) continue; if (i == 6) break; s += i; } s", 203, "12"),
        ("var s = ''; for (var i = 0; i < 3; i++) { for (var j = 0; j < 3; j++) { if (j == 1) break; s += '' + i + j; } } s", 199, "001020"),
        ("var n = 0; while (n < 5) { n++; } n", 84, "5"),
        ("function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } fib(11)", 3737, "89"),
        ("function counter() { var n = 0; return function() { n++; return n; }; } var c = counter(); c(); c(); c()", 62, "3"),
        ("var a = [10, 20, 30]; var s = 0; for (var i in a) { s += a[i]; } s", 57, "60"),
        ("var log = ''; for (var i = 0; i < 3; i++) { try { if (i == 1) continue; log += i; } finally { log += 'f'; } } log", 123, "0ff2f"),
        ("var i = 5; '' + i++ + ':' + i + ':' + ++i", 32, "5:6:7"),
        ("function g(a) { var b = a * 2; return b; } g(4); typeof b", 21, "undefined"),
        ("var i = 0; var buff; var count = 0; function read() { i++; if (i > 3) return null; return 'chunk'; } while (buff = read()) { count++; } count", 139, "3"),
    ];
    for (src, fuel, value) in pinned {
        assert!(CORPUS.contains(src), "{src:?} is a corpus program");
        assert_eq!(vm_fuel(src), (*fuel, value.to_string()), "{src:?}");
    }
}

#[test]
fn numeric_indexing_agrees_and_charges_the_same_fuel_as_the_string_round_trip() {
    // `a[i]` with a number for `i` reads and writes the element directly;
    // the answers and the fuel (recorded at `bc0999c`, when every access
    // went through the index's display string) are unchanged.
    let pinned: &[(&str, u64, &str)] = &[
        (
            "function f() { var a = [0]; for (var i = 1; i < 1000; i = i + 1) { a[i] = a[i - 1] + 1; } return a[999] + ':' + a.length; } f()",
            22012,
            "999:1000",
        ),
        // The Figure-2 idiom's inner half: walk a byte array, element by
        // element, reading and overwriting.
        (
            "function f() { var body = new ByteArray(); body.append('The quick brown fox jumps over the lazy dog'); var sum = 0; for (var i = 0; i < body.length; i++) { sum = (sum + body[i] * (i + 1)) % 65521; body[i] = body[i] + 1; } return sum + ':' + body[0] + ':' + body.toString(); } f()",
            1680,
            "23993:85:Uif!rvjdl!cspxo!gpy!kvnqt!pwfs!uif!mb{z!eph",
        ),
    ];
    for (src, fuel, value) in pinned {
        assert_engines_agree(src);
        assert_eq!(vm_fuel(src), (*fuel, value.to_string()), "{src:?}");
    }
    // Indices that do not name an existing element take the old path, and
    // say what it said.
    for src in [
        "var a = [1, 2, 3]; '' + a[-1] + a[3] + a[1.5] + a[0/0] + a[-0] + a['1'] + a[true]",
        "var a = [1]; a[3] = 9; a[1.5] = 7; a.length + ':' + a",
        "var a = [1]; a[-1] = 2",
        "var b = new ByteArray(); b.append('ab'); b[1] = 300; b[2] = 66; b[0] + ':' + b[1] + ':' + b[2] + ':' + b[7] + ':' + b.length",
        "var s = 'héllo'; s[1] + s[4] + s[5] + s[-0]",
        "var s = 'abc'; s[0] = 'x'",
        "var o = {}; o[1] = 'one'; o[1.5] = 'half'; o[1] + o['1'] + o[1.5]",
        "var n = 5; typeof n[0]",
    ] {
        assert_engines_agree(src);
    }
}

#[test]
fn arguments_is_an_allocation_both_engines_charge() {
    for src in [
        "function f() { return arguments.length + ':' + arguments[1]; } f(7, 8, 9)",
        "function f(a) { arguments[0] = 5; return a + ':' + arguments[0]; } f(1)",
        "function f() { var g = function() { return arguments.length; }; return g(1, 2) + arguments.length; } f(1)",
        "function f(a) { return typeof arguments; } f() + (typeof arguments)",
    ] {
        assert_engines_agree(src);
    }

    // A deep recursion handing a long argument list down: nine numbers at
    // sixty levels is 60 x (9 x 16 + 32) = 10,560 bytes of argument arrays
    // and nothing else.  It used to run in any budget, because the arrays
    // were made for every call and charged for none.
    let hoarder = "function f(n, a, b, c, d, e, g, h, i) { \
                       if (n == 0) { return arguments.length; } \
                       return f(n - 1, a, b, c, d, e, g, h, i); \
                   } f(59, 1, 2, 3, 4, 5, 6, 7, 8)";
    assert_engines_agree(hoarder);
    for result in [
        run_interp(hoarder, GENEROUS_FUEL, 8_192),
        run_vm(hoarder, GENEROUS_FUEL, 8_192),
    ] {
        assert_eq!(result, Err(ScriptError::MemoryExceeded { limit: 8_192 }));
    }
    // The same recursion without the mention makes no arrays to charge.
    let frugal = hoarder.replace("arguments.length", "9");
    for result in [
        run_interp(&frugal, GENEROUS_FUEL, 8_192),
        run_vm(&frugal, GENEROUS_FUEL, 8_192),
    ] {
        assert_eq!(result, Ok(Value::Number(9.0)));
    }
}

// ---------------------------------------------------------------------------
// Handlers registered by one run and called later.
// ---------------------------------------------------------------------------

/// One later call: the value or error, then the global `seen` of the scope
/// the handler closed over.
type Called = (Result<(String, String), ScriptError>, String);

/// Runs `load` on each engine, then calls the function it left in the global
/// `handler` once per `(arguments, fuel)` the way the pipeline calls an
/// `onRequest`: later, `this` undefined, under a context of its own that
/// carries only the limits and the meter.  Asserts the engines agree on
/// every call.  They count fuel in different units, so charges are compared
/// where they can be: each engine charges the same when everything is done
/// again, never runs past the limit by more than one instruction (weight
/// at most 4), and the VM's meter is told what was charged.
fn later_calls(load: &str, calls: &[(&[Value], u64)]) -> Vec<Called> {
    let ast = parse_program(load).expect("the load script parses");
    let compiled = compile(&ast);
    let run = |on_vm: bool| -> (Vec<Called>, Vec<u64>) {
        let ctx = Context::new();
        stdlib::install(&ctx);
        let loaded = if on_vm {
            Vm::new(&ctx).run(&compiled)
        } else {
            Interpreter::new(&ctx).run(&ast)
        };
        loaded.expect("the load script runs");
        let handler = ctx.get_global("handler").expect("a handler is registered");
        let call = |(args, fuel): &(&[Value], u64)| {
            let accounting = Context::with_limits(*fuel, DEFAULT_MEMORY_LIMIT);
            let (result, charged) = if on_vm {
                let mut vm = Vm::new(&accounting);
                let result = vm.call_function(&compiled, &handler, &Value::Undefined, args);
                assert_eq!(accounting.meter.steps(), vm.fuel_used());
                (result, vm.fuel_used())
            } else {
                let mut interp = Interpreter::new(&accounting);
                let result = interp.call_function(&handler, &Value::Undefined, args);
                (result, interp.fuel_used())
            };
            assert!(charged <= fuel.saturating_add(4), "{charged} > {fuel}");
            let seen = ctx.get_global("seen").expect("the script declares `seen`");
            ((outcome(result), seen.to_display_string()), charged)
        };
        calls.iter().map(call).unzip()
    };
    let (by_interp, by_vm) = (run(false), run(true));
    assert_eq!(by_interp, run(false), "the interpreter is not repeatable");
    assert_eq!(by_vm, run(true), "the VM is not repeatable");
    assert_eq!(by_interp.0, by_vm.0, "engines disagree on {load}");
    by_vm.0
}

fn text(s: &str) -> Result<(String, String), ScriptError> {
    Ok(("string".to_string(), s.to_string()))
}

#[test]
fn a_registered_closure_sees_its_globals_as_later_writes_left_them() {
    // `count` is written after the closure was made: by the rest of the
    // load script, then by the first call.
    let calls = later_calls(
        "var count = 0; var seen = '';
         function bump(by) { count = count + by; return count; }
         handler = function(by) { seen = seen + count + ','; return bump(by) + ':' + typeof this; };
         count = 40;",
        &[
            (&[Value::Number(2.0)], GENEROUS_FUEL),
            (&[Value::Number(5.0)], GENEROUS_FUEL),
        ],
    );
    assert_eq!(calls[0], (text("42:undefined"), "40,".to_string()));
    assert_eq!(calls[1], (text("47:undefined"), "40,42,".to_string()));
}

#[test]
fn a_registered_handler_reads_the_arguments_of_the_call_it_serves() {
    let xyz = ["x", "y", "z"].map(Value::string);
    let calls = later_calls(
        "var seen = '';
         handler = function(a) {
             var s = arguments.length + ':';
             for (var i = 0; i < arguments.length; i++) { s = s + arguments[i] + '|'; }
             arguments[0] = 'changed';
             seen = seen + arguments.length;
             return s + a;
         };",
        // The third has too little fuel to get through the loop.
        &[(&xyz, GENEROUS_FUEL), (&[], GENEROUS_FUEL), (&xyz, 12)],
    );
    assert_eq!(calls[0].0, text("3:x|y|z|x"));
    assert_eq!(calls[1].0, text("0:undefined"));
    assert_eq!(
        calls[2],
        (Err(ScriptError::FuelExhausted), "31".to_string())
    );
}

#[test]
fn a_registered_handler_that_throws_in_try_finally_agrees_under_a_fuel_limit() {
    let (spin, throw) = ([Value::Bool(true)], [Value::Bool(false)]);
    let calls = later_calls(
        "var seen = '';
         handler = function(spin) {
             try {
                 try {
                     seen = seen + 'try,';
                     if (!spin) { throw 'boom'; }
                     while (true) { }
                 } finally { seen = seen + 'finally,'; }
             } catch (e) { seen = seen + 'caught ' + e + ','; throw 're-' + e; }
         };",
        // In budget: thrown, seen by `finally`, caught, thrown again.  Out
        // of fuel inside the `try`: neither `finally` nor `catch` gets to
        // write.  Out of fuel before the `throw` is reached.
        &[(&throw, GENEROUS_FUEL), (&spin, 5_000), (&throw, 6)],
    );
    let thrown = Err(ScriptError::Thrown("re-boom".into()));
    assert_eq!(calls[0], (thrown, "try,finally,caught boom,".to_string()));
    let killed = Err(ScriptError::FuelExhausted);
    assert_eq!(calls[1], (killed.clone(), format!("{}try,", calls[0].1)));
    assert_eq!(calls[2].0, killed);
}

#[test]
fn a_registered_handler_hoists_its_declarations_and_can_hand_back_another_handler() {
    // The interpreter hoists a called function's declarations in
    // `call_function` itself, apart from the path script-to-script calls
    // take.  `inner` is a closure made during one later call and run by
    // the next ones.
    let calls = later_calls(
        "var seen = ''; var inner = null;
         function outer(n) {
             seen = seen + helper(n) + ',';
             function helper(k) { return k * 2; }
             var base = helper(n);
             return function(m) { base = base + m; seen = seen + base + ','; return base; };
         }
         handler = function(x) {
             if (inner == null) { inner = outer(x); return typeof inner; }
             return '' + inner(x);
         };",
        &[
            (&[Value::Number(4.0)], GENEROUS_FUEL),
            (&[Value::Number(1.0)], GENEROUS_FUEL),
            (&[Value::Number(2.0)], GENEROUS_FUEL),
        ],
    );
    assert_eq!(calls[0].0, text("function"));
    assert_eq!(calls[2], (text("11"), "8,9,11,".to_string()));
}

#[test]
fn what_is_registered_need_not_be_a_script_function() {
    // A native is called with the arguments as given; anything else is the
    // same type error.
    let px = [Value::string("42px")];
    let calls = later_calls(
        "var seen = ''; handler = parseInt;",
        &[(&px, GENEROUS_FUEL)],
    );
    assert_eq!(calls[0].0, Ok(("number".into(), "42".into())));
    let calls = later_calls("var seen = ''; handler = {};", &[(&[], GENEROUS_FUEL)]);
    let refused = ScriptError::Type("object is not a function".into());
    assert_eq!(calls[0].0, Err(refused));
}

#[test]
fn a_registered_handler_overflows_the_stack_at_the_same_depth() {
    // The later call is itself a level, on both engines: every depth either
    // fits on both or overflows on both, and some depth under 100 does.
    let depths: Vec<[Value; 1]> = (1..100).map(|n| [Value::Number(n as f64)]).collect();
    let calls: Vec<(&[Value], u64)> = depths.iter().map(|d| (&d[..], GENEROUS_FUEL)).collect();
    let outcomes = later_calls(
        "var seen = '';
         function down(n) { if (n == 0) { return 'bottom'; } return down(n - 1); }
         handler = function(n) { return down(n); };",
        &calls,
    );
    assert_eq!(outcomes[30].0, text("bottom"));
    assert_eq!(outcomes[98].0, Err(ScriptError::StackOverflow));
}

// ---------------------------------------------------------------------------
// Random program generation.
// ---------------------------------------------------------------------------

/// Splitmix64: deterministic program shapes from a proptest-supplied seed.
struct Gen {
    state: u64,
    /// Top-level variables guaranteed declared before the current point.
    vars: Vec<String>,
    /// Declared function names (arity 2).
    funcs: Vec<String>,
    counter: usize,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
            vars: Vec::new(),
            funcs: Vec::new(),
            counter: 0,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}{}", self.counter)
    }

    /// A side-effect-free expression over declared variables.
    fn expr(&mut self, depth: usize) -> String {
        if depth == 0 || self.below(3) == 0 {
            return match self.below(5) {
                0 => format!("{}", self.below(100)),
                1 => format!("'s{}'", self.below(10)),
                2 if !self.vars.is_empty() => {
                    let i = self.below(self.vars.len());
                    self.vars[i].clone()
                }
                3 => ["true", "false", "null", "undefined"][self.below(4)].to_string(),
                _ => format!("{}", self.below(10)),
            };
        }
        match self.below(7) {
            0 => {
                let (l, r) = (self.expr(depth - 1), self.expr(depth - 1));
                let op = ["+", "-", "*", "%"][self.below(4)];
                format!("({l} {op} {r})")
            }
            1 => {
                let (l, r) = (self.expr(depth - 1), self.expr(depth - 1));
                let op = ["<", ">", "<=", ">=", "==", "===", "!=", "!=="][self.below(8)];
                format!("({l} {op} {r})")
            }
            2 => {
                let (l, r) = (self.expr(depth - 1), self.expr(depth - 1));
                let op = ["&&", "||"][self.below(2)];
                format!("({l} {op} {r})")
            }
            3 => {
                let (c, t, e) = (
                    self.expr(depth - 1),
                    self.expr(depth - 1),
                    self.expr(depth - 1),
                );
                format!("({c} ? {t} : {e})")
            }
            4 => {
                let inner = self.expr(depth - 1);
                let op = ["-", "+", "!", "typeof "][self.below(4)];
                format!("({op}{inner})")
            }
            5 if !self.funcs.is_empty() => {
                let i = self.below(self.funcs.len());
                let f = self.funcs[i].clone();
                let (a, b) = (self.expr(depth - 1), self.expr(depth - 1));
                format!("{f}({a}, {b})")
            }
            _ => {
                let (a, b) = (self.expr(depth - 1), self.expr(depth - 1));
                format!("('' + {a} + {b})")
            }
        }
    }

    /// One statement appended to `src`; every observable effect is traced
    /// into `out`.
    fn stmt(&mut self, src: &mut String, depth: usize) {
        match self.below(if depth > 0 { 11 } else { 4 }) {
            0 => {
                let name = self.fresh("v");
                let init = self.expr(2);
                src.push_str(&format!("var {name} = {init};\n"));
                self.vars.push(name);
            }
            1 if !self.vars.is_empty() => {
                let i = self.below(self.vars.len());
                let target = self.vars[i].clone();
                let value = self.expr(2);
                let op = ["=", "+=", "-=", "*="][self.below(4)];
                src.push_str(&format!("{target} {op} {value};\n"));
            }
            2 if !self.vars.is_empty() => {
                let i = self.below(self.vars.len());
                let target = self.vars[i].clone();
                let form = ["++", "--"][self.below(2)];
                if self.below(2) == 0 {
                    src.push_str(&format!("{target}{form};\n"));
                } else {
                    src.push_str(&format!("{form}{target};\n"));
                }
            }
            3 => {
                let e = self.expr(3);
                src.push_str(&format!("out += '|' + {e};\n"));
            }
            4 => {
                let cond = self.expr(2);
                src.push_str(&format!("if ({cond}) {{\n"));
                self.stmt(src, depth - 1);
                if self.below(2) == 0 {
                    src.push_str("} else {\n");
                    self.stmt(src, depth - 1);
                }
                src.push_str("}\n");
            }
            5 => {
                let i = self.fresh("i");
                let bound = 2 + self.below(4);
                src.push_str(&format!(
                    "for (var {i} = 0; {i} < {bound}; {i}++) {{\nout += ':' + {i};\n"
                ));
                if self.below(3) == 0 {
                    src.push_str(&format!("if ({i} == 1) continue;\n"));
                }
                if self.below(3) == 0 {
                    src.push_str(&format!("if ({i} == 2) break;\n"));
                }
                self.stmt(src, depth - 1);
                src.push_str("}\n");
            }
            6 => {
                let w = self.fresh("w");
                let bound = 1 + self.below(4);
                src.push_str(&format!(
                    "var {w} = 0;\nwhile ({w} < {bound}) {{\n{w}++;\nout += '.' + {w};\n"
                ));
                self.stmt(src, depth - 1);
                src.push_str("}\n");
                self.vars.push(w);
            }
            7 => {
                let o = self.fresh("o");
                let (a, b) = (self.expr(2), self.expr(2));
                let k = self.fresh("k");
                src.push_str(&format!(
                    "var {o} = {{a: {a}, b: {b}}};\n\
                     {o}.a = {o}.a + 1;\n\
                     for (var {k} in {o}) {{ out += ';' + {k} + '=' + {o}[{k}]; }}\n"
                ));
            }
            8 => {
                let f = self.fresh("f");
                let ret = self.expr(2);
                let body_obs = self.expr(2);
                src.push_str(&format!(
                    "function {f}(a, b) {{\n\
                     var local = a + b;\n\
                     if (local > 10) {{ return 'big:' + local; }}\n\
                     out += '#' + {body_obs};\n\
                     return local + ({ret} === undefined ? 0 : 0);\n\
                     }}\n"
                ));
                self.funcs.push(f.clone());
                let (x, y) = (self.expr(1), self.expr(1));
                src.push_str(&format!("out += '!' + {f}({x}, {y});\n"));
            }
            9 => self.numeric_function(src),
            _ => {
                let thrown = self.expr(1);
                let guard = self.expr(2);
                src.push_str(&format!(
                    "try {{\nif ({guard}) {{ throw {thrown}; }}\nout += 'T';\n"
                ));
                self.stmt(src, depth.saturating_sub(1));
                src.push_str("} catch (e) {\nout += 'C' + e;\n} finally {\nout += 'F';\n}\n");
            }
        }
    }

    fn pick(&mut self, from: &[&'static str]) -> &'static str {
        from[self.below(from.len())]
    }

    /// A function of numeric `for` / `while` loops over its own locals — the
    /// shapes the compiler fuses — called with arbitrary arguments, so every
    /// fused instruction also meets strings, booleans, `null`, `undefined`,
    /// `NaN` and `-0` where it expects a number.
    fn numeric_function(&mut self, src: &mut String) {
        let f = self.fresh("n");
        let start = self.pick(&["0", "1", "-0", "0 / 0", "'7'", "2.5", "a"]);
        let (lo, hi) = (self.below(3), 2 + self.below(6));
        let bound = self.pick(&["<", "<="]);
        let update = self.pick(&["i = i + 1", "i += 2", "i++", "++i", "i = i + 0.5"]);
        let op = self.pick(&["+", "-", "*", "%"]);
        let factor = self.pick(&["3", "0", "'2'", "0.5", "b"]);
        let modulus = self.pick(&["7", "9973", "0", "1", "2.5", "b"]);
        let rel = self.pick(&["<", ">", "<=", ">=", "==", "!=", "===", "!=="]);
        let limit = self.pick(&["4", "0", "b", "acc"]);
        let mixed = self.pick(&["1", "'s'", "a", "-0", "0 / 0"]);
        let spins = self.below(5);
        let compound = self.pick(&["acc += w", "acc -= w", "acc *= w", "acc = acc % w"]);
        src.push_str(&format!(
            "function {f}(a, b) {{\n\
             var acc = {start};\n\
             for (var i = {lo}; i {bound} {hi}; {update}) {{\n\
             acc = (acc {op} i * {factor}) % {modulus};\n\
             if ((acc + i) {rel} {limit}) {{ acc = acc + {mixed}; }}\n\
             if (a {rel} b) {{ acc = acc - 1; }}\n\
             }}\n\
             var w = {spins};\n\
             while (w > 0) {{ w = w - 1; {compound}; }}\n\
             return (acc % 1 == 0 ? 'int:' : 'other:') + acc;\n\
             }}\n"
        ));
        let (x, y) = (self.expr(1), self.expr(1));
        src.push_str(&format!("out += '~' + {f}({x}, {y}) + {f}({y}, 3);\n"));
        self.funcs.push(f);
    }

    fn program(&mut self, stmts: usize) -> String {
        let mut src = String::from("var out = '';\n");
        self.vars.push("out".to_string());
        for _ in 0..stmts {
            self.stmt(&mut src, 2);
        }
        src.push_str("out");
        src
    }
}

/// Every function of a compiled program, the top level first.
fn functions(program: &CompiledProgram) -> Vec<&CompiledFunction> {
    let mut all = vec![&*program.main];
    let mut next = 0;
    while next < all.len() {
        all.extend(all[next].funcs.iter().map(|f| &**f));
        next += 1;
    }
    all
}

#[test]
fn generated_programs_use_every_superinstruction() {
    // No fused instruction may be exercised by the benchmark's handler
    // alone: the generator's own programs — a fixed run of seeds, so the
    // set is the same on every machine — must contain each of them.
    let mut seen = BTreeSet::new();
    for seed in 0..192 {
        let src = Gen::new(seed).program(8);
        let compiled = compile(&parse_program(&src).expect("generated programs parse"));
        for function in functions(&compiled) {
            seen.extend(function.code.iter().filter_map(|op| match op {
                Op::BinNum { .. } => Some("BinNum"),
                Op::SlotBinNum { .. } => Some("SlotBinNum"),
                Op::JumpUnless { .. } => Some("JumpUnless"),
                Op::JumpUnlessNum { .. } => Some("JumpUnlessNum"),
                Op::JumpUnlessSlotNum { .. } => Some("JumpUnlessSlotNum"),
                Op::SetSlot(_) => Some("SetSlot"),
                Op::SetSlotLast(_) => Some("SetSlotLast"),
                primitive => {
                    assert_eq!(
                        primitive.weight(),
                        1,
                        "{primitive:?} is fused: list it here"
                    );
                    None
                }
            }));
        }
    }
    let all = [
        "BinNum",
        "JumpUnless",
        "JumpUnlessNum",
        "JumpUnlessSlotNum",
        "SetSlot",
        "SetSlotLast",
        "SlotBinNum",
    ];
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), all);
}

/// Cases per property: 192 unless `PROPTEST_CASES` asks for another number
/// (CI runs the release build with ten times as many).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|cases| cases.parse().ok())
        .unwrap_or(192)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn generated_programs_agree(seed in any::<u64>()) {
        let src = Gen::new(seed).program(8);
        let i = outcome(run_interp(&src, GENEROUS_FUEL, DEFAULT_MEMORY_LIMIT));
        let v = outcome(run_vm(&src, GENEROUS_FUEL, DEFAULT_MEMORY_LIMIT));
        prop_assert_eq!(i, v, "engines disagree on generated program:\n{}", src);
    }

    #[test]
    fn generated_programs_agree_under_tight_fuel(seed in any::<u64>()) {
        // Fuel counts legitimately differ between engines; under a tight
        // limit the engines must either agree on the outcome or at least one
        // must die with a resource kill.
        let src = Gen::new(seed).program(6);
        let i = run_interp(&src, 2_000, DEFAULT_MEMORY_LIMIT);
        let v = run_vm(&src, 2_000, DEFAULT_MEMORY_LIMIT);
        let resource_kill = |r: &Result<Value, ScriptError>| {
            matches!(r, Err(e) if e.is_resource_kill())
        };
        if !resource_kill(&i) && !resource_kill(&v) {
            prop_assert_eq!(
                outcome(i),
                outcome(v),
                "engines disagree under tight fuel:\n{}",
                src
            );
        }
    }
}
