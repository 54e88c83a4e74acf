//! NkScript — the scripting engine at the heart of Na Kika.
//!
//! The Na Kika paper (Grimm et al., NSDI 2006) expresses all hosted services,
//! applications *and* security policies as JavaScript event handlers executed
//! by an embedded SpiderMonkey engine that the authors extended with byte
//! arrays.  This crate is the from-scratch Rust substitute: **NkScript**, a
//! JavaScript-subset language with C-like syntax, first-class functions and
//! closures, objects, arrays and byte arrays, lowered once to bytecode
//! ([`compile()`]) and executed by a sandboxed stack VM ([`Vm`]).  The
//! tree-walking [`Interpreter`] is the language's executable specification:
//! nothing outside this crate runs it, and `tests/differential.rs` holds the
//! VM to its values, errors and fuel.
//!
//! The properties the paper's design and evaluation rely on are reproduced
//! here:
//!
//! * **Sandboxing** — a script can only reach the globals its host installs
//!   (the *vocabularies*); there is no ambient file, socket, or process
//!   access (paper §3.2).
//! * **Per-context heaps with accounting** — each [`context::Context`] tracks
//!   its approximate heap footprint and the engine charges *fuel* per
//!   evaluation step, which is how the resource manager observes CPU and
//!   memory consumption of hosted code.
//! * **Asynchronous termination** — a context carries a kill flag that the
//!   congestion controller can set; the engine aborts promptly, which is
//!   the analogue of Na Kika killing the Apache process of an offending
//!   pipeline.
//! * **Context reuse** — creating a scripting context is much more expensive
//!   than reusing one (the paper measures 1.5 ms vs 3 µs), so function
//!   values keep the scope they closed over and a host can run a handler
//!   registered in one run many times ([`Vm::call_function`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod bytecode;
pub mod compile;
pub mod context;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod stdlib;
pub mod value;
pub mod vm;

pub use bytecode::CompiledProgram;
pub use compile::compile;
pub use context::{Context, ResourceMeter};
pub use error::ScriptError;
pub use interp::Interpreter;
pub use parser::parse_program;
pub use value::{NativeFn, ObjectRef, Value};
pub use vm::Vm;

/// Convenience: parse and evaluate `source` in a fresh default context,
/// returning the value of the last expression statement.
///
/// Runs the engine a node runs (parse, [`compile()`], [`Vm`]).  Intended for
/// tests and small tools; a host constructs a [`Context`], installs its
/// vocabularies, compiles once and uses [`Vm`] directly.
pub fn eval(source: &str) -> Result<Value, ScriptError> {
    let program = compile(&parser::parse_program(source)?);
    let ctx = Context::new();
    stdlib::install(&ctx);
    Vm::new(&ctx).run(&program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_smoke_test() {
        assert_eq!(eval("1 + 2 * 3").unwrap(), Value::Number(7.0));
        assert_eq!(
            eval("var x = 'na'; x + 'kika'").unwrap(),
            Value::string("nakika")
        );
    }
}
