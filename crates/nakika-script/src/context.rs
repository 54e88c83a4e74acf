//! Scripting contexts: lexical scopes and per-context resource accounting.
//!
//! In the paper's prototype, each pipeline runs in its own Apache process and
//! each script in its own user-level thread with its own SpiderMonkey context
//! (heap included).  Contexts are *reused* across event-handler executions to
//! amortise the ~1.5 ms creation cost down to ~3 µs (paper §4–5.1).  The
//! monitoring process observes each pipeline's CPU, memory and network use
//! and can throttle or kill it.  Here the same roles are played by
//! [`Context`] and [`ResourceMeter`]; reuse is the node's business — a stage
//! instance keeps the context its script ran in (`nakika-core`'s
//! `pipeline.rs`).

use crate::value::Value;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A lexical scope: a variable map plus a link to the enclosing scope.
#[derive(Clone, Default)]
pub struct Scope {
    inner: Arc<RwLock<ScopeData>>,
}

#[derive(Default)]
struct ScopeData {
    vars: HashMap<String, Value>,
    parent: Option<Scope>,
    /// Writes made to `vars` so far; see [`Scope::writes`].
    writes: u64,
}

impl Scope {
    /// Creates a top-level (global) scope.
    pub fn new() -> Scope {
        Scope::default()
    }

    /// Creates a child scope whose lookups fall back to `self`.
    pub fn child(&self) -> Scope {
        Scope {
            inner: Arc::new(RwLock::new(ScopeData {
                parent: Some(self.clone()),
                ..ScopeData::default()
            })),
        }
    }

    /// Declares (or redeclares) a variable in *this* scope.  Only a name the
    /// scope does not have yet allocates.
    pub fn declare(&self, name: &str, value: Value) {
        let mut data = self.inner.write();
        data.writes += 1;
        match data.vars.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                data.vars.insert(name.to_string(), value);
            }
        }
    }

    /// Looks a variable up through the scope chain.
    pub fn get(&self, name: &str) -> Option<Value> {
        let data = self.inner.read();
        if let Some(v) = data.vars.get(name) {
            return Some(v.clone());
        }
        let parent = data.parent.clone();
        drop(data);
        parent.and_then(|p| p.get(name))
    }

    /// Assigns to an existing variable somewhere in the chain; if the name is
    /// not declared anywhere it is created in the *outermost* (global) scope,
    /// matching JavaScript's sloppy-mode behaviour that the paper's example
    /// scripts rely on (`p = new Policy();` without `var`).
    pub fn assign(&self, name: &str, value: Value) {
        if let Err(value) = self.try_assign(name, value) {
            self.global().declare(name, value);
        }
    }

    /// Overwrites the innermost binding of `name`; hands the value back when
    /// no scope in the chain has one.
    fn try_assign(&self, name: &str, value: Value) -> Result<(), Value> {
        let mut data = self.inner.write();
        if let Some(slot) = data.vars.get_mut(name) {
            *slot = value;
            data.writes += 1;
            return Ok(());
        }
        let parent = data.parent.clone();
        drop(data);
        match parent {
            Some(p) => p.try_assign(name, value),
            None => Err(value),
        }
    }

    /// How many times a variable of *this* scope has been written
    /// (declared, assigned or cleared).  Whoever installed this scope's
    /// variables can tell from an unchanged count that they are all still
    /// in place.
    pub fn writes(&self) -> u64 {
        self.inner.read().writes
    }

    /// The outermost scope in the chain.
    pub(crate) fn global(&self) -> Scope {
        let parent = self.inner.read().parent.clone();
        match parent {
            Some(p) => p.global(),
            None => self.clone(),
        }
    }

    /// Number of variables declared directly in this scope.
    #[cfg(test)]
    pub(crate) fn local_count(&self) -> usize {
        self.inner.read().vars.len()
    }
}

/// Shared counters through which the interpreter reports resource consumption
/// and through which the resource manager can terminate a script.
///
/// One meter typically belongs to one *site pipeline*; Na Kika's congestion
/// controller aggregates these per site (paper Figure 6).
#[derive(Clone, Default)]
pub struct ResourceMeter {
    inner: Arc<MeterInner>,
}

#[derive(Default)]
struct MeterInner {
    /// Evaluation steps consumed (proxy for CPU time).
    steps: AtomicU64,
    /// Bytes of script heap allocated (approximate, monotonically increasing).
    allocated: AtomicU64,
    /// Set by the resource manager to kill the pipeline.
    killed: AtomicBool,
}

impl ResourceMeter {
    /// Creates a fresh meter.
    pub fn new() -> ResourceMeter {
        ResourceMeter::default()
    }

    /// Adds evaluation steps.
    pub(crate) fn add_steps(&self, n: u64) {
        self.inner.steps.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds allocated heap bytes.
    pub(crate) fn add_allocated(&self, n: u64) {
        self.inner.allocated.fetch_add(n, Ordering::Relaxed);
    }

    /// Total evaluation steps so far.
    pub fn steps(&self) -> u64 {
        self.inner.steps.load(Ordering::Relaxed)
    }

    /// Total allocated bytes so far.
    pub fn allocated(&self) -> u64 {
        self.inner.allocated.load(Ordering::Relaxed)
    }

    /// Marks the pipeline as terminated; the interpreter aborts at the next
    /// safepoint with [`crate::ScriptError::Terminated`].
    pub fn kill(&self) {
        self.inner.killed.store(true, Ordering::Relaxed);
    }

    /// True once [`ResourceMeter::kill`] has been called.
    pub fn is_killed(&self) -> bool {
        self.inner.killed.load(Ordering::Relaxed)
    }
}

/// Default fuel budget per event-handler execution (evaluation steps).
pub const DEFAULT_FUEL: u64 = 50_000_000;

/// Default hard memory cap per context (64 MiB), the sandbox's last line of
/// defence beneath the congestion-based controls.
pub const DEFAULT_MEMORY_LIMIT: usize = 64 * 1024 * 1024;

/// An isolated scripting context: global scope + resource limits.
#[derive(Clone)]
pub struct Context {
    /// The global scope into which vocabularies are installed.
    pub globals: Scope,
    /// Resource meter shared with the node's resource manager.
    pub meter: ResourceMeter,
    /// Fuel budget for a single run.
    pub(crate) fuel_limit: u64,
    /// Hard memory cap in bytes.
    pub(crate) memory_limit: usize,
}

impl Default for Context {
    fn default() -> Self {
        Context::new()
    }
}

impl Context {
    /// Creates a context with default limits and a fresh meter.
    pub fn new() -> Context {
        Context {
            globals: Scope::new(),
            meter: ResourceMeter::new(),
            fuel_limit: DEFAULT_FUEL,
            memory_limit: DEFAULT_MEMORY_LIMIT,
        }
    }

    /// Creates a context with explicit limits.
    pub fn with_limits(fuel_limit: u64, memory_limit: usize) -> Context {
        Context {
            fuel_limit,
            memory_limit,
            ..Context::new()
        }
    }

    /// Installs a global (vocabulary root object, constructor, or constant).
    pub fn set_global(&self, name: &str, value: Value) {
        self.globals.declare(name, value);
    }

    /// Reads a global, if defined.
    pub fn get_global(&self, name: &str) -> Option<Value> {
        self.globals.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_chain_lookup_and_shadowing() {
        let global = Scope::new();
        global.declare("x", Value::Number(1.0));
        let inner = global.child();
        assert_eq!(inner.get("x"), Some(Value::Number(1.0)));
        inner.declare("x", Value::Number(2.0));
        assert_eq!(inner.get("x"), Some(Value::Number(2.0)));
        assert_eq!(global.get("x"), Some(Value::Number(1.0)));
        assert_eq!(inner.get("missing"), None);
    }

    #[test]
    fn assignment_walks_the_chain() {
        let global = Scope::new();
        global.declare("x", Value::Number(1.0));
        let inner = global.child().child();
        inner.assign("x", Value::Number(5.0));
        assert_eq!(global.get("x"), Some(Value::Number(5.0)));
        // Undeclared assignment lands on the global scope.
        inner.assign("fresh", Value::Bool(true));
        assert_eq!(global.get("fresh"), Some(Value::Bool(true)));
        assert_eq!(inner.local_count(), 0);
    }

    #[test]
    fn assigning_an_existing_global_keeps_its_key_and_counts_the_write() {
        // `tests/scope_writes.rs` shows that nothing is allocated; here, that
        // the key the map holds is the one it was given first.
        let global = Scope::new();
        global.declare("x", Value::Number(0.0));
        let key = || {
            let data = global.inner.read();
            data.vars.get_key_value("x").unwrap().0.as_ptr()
        };
        let (first_key, written) = (key(), global.writes());
        let inner = global.child();
        for n in 0..10_000 {
            inner.assign("x", Value::Number(n as f64));
        }
        assert_eq!(key(), first_key);
        assert_eq!(global.writes() - written, 10_000);
    }

    #[test]
    fn meter_counts_and_kill() {
        let m = ResourceMeter::new();
        m.add_steps(10);
        m.add_allocated(100);
        assert_eq!(m.steps(), 10);
        assert_eq!(m.allocated(), 100);
        assert!(!m.is_killed());
        m.kill();
        assert!(m.is_killed());
    }
}
