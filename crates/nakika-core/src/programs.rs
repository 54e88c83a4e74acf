//! The hash-keyed cache of compiled NkScript programs.
//!
//! Every script a node runs — wall scripts, site stages, Na Kika Pages —
//! arrives as source text.  Before this cache existed the node reparsed (and
//! for pages, re-executed from the AST) on every request; now each distinct
//! source is parsed and lowered to bytecode exactly once, keyed by a 64-bit
//! FNV-1a hash of the text, and every later request reuses the compiled
//! artifact.  The `compiles` / `hits` counters surface through
//! [`NaKikaNode::cache_stats`](crate::node::NaKikaNode::cache_stats) (as
//! `script_compiles` / `script_cache_hits`) and the `/__nakika/stats`
//! cluster endpoint, so the "compile once, execute many" property is
//! observable in production, not just asserted in tests.

use nakika_script::{compile, parse_program, CompiledProgram, Context, ScriptError, Value, Vm};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Kept only because the frozen benchmark harness (`bench/src/sut.rs`)
/// writes `ScriptEngine::Vm.run(&ctx, &script)`; the node itself calls
/// [`Vm`] directly.  ROADMAP lists it for deletion by the next
/// `[benchmark]` PR.
#[derive(Debug, Clone, Copy)]
pub enum ScriptEngine {
    /// The bytecode VM, the node's one script engine.
    Vm,
}

impl ScriptEngine {
    /// Runs a cached script's top level in `ctx`, returning the value of its
    /// last expression statement.
    pub fn run(self, ctx: &Context, script: &CachedScript) -> Result<Value, ScriptError> {
        Vm::new(ctx).run(&script.compiled)
    }
}

/// One cached script: the bytecode lowering of its source.
pub struct CachedScript {
    /// The program, lowered to bytecode.
    pub compiled: Arc<CompiledProgram>,
}

/// 64-bit FNV-1a over the script source — the program cache's key.
fn fnv1a(source: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in source.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Upper bound on cached programs; reaching it clears the cache (losing
/// compilations only costs recompiles, never correctness).
const MAX_ENTRIES: usize = 1024;

/// The compiled-program cache: source hash → bytecode.
#[derive(Default)]
pub struct ProgramCache {
    entries: Mutex<HashMap<(u64, usize), Arc<CachedScript>>>,
    compiles: AtomicU64,
    hits: AtomicU64,
}

impl ProgramCache {
    /// Creates an empty cache.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// Returns the cached compilation of `source`, parsing and lowering it
    /// first if this exact text has not been seen before.  Parse errors are
    /// not cached: a broken script is cheap to re-reject and its callers
    /// negatively cache at their own layer (the stage cache).
    pub fn get_or_compile(&self, source: &str) -> Result<Arc<CachedScript>, ScriptError> {
        // The key pairs the hash with the length so a (vanishingly unlikely)
        // 64-bit collision cannot silently execute the wrong program.
        let key = (fnv1a(source), source.len());
        if let Some(cached) = self.entries.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(cached.clone());
        }
        let compiled = Arc::new(compile(&parse_program(source)?));
        let cached = Arc::new(CachedScript { compiled });
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock();
        if entries.len() >= MAX_ENTRIES {
            entries.clear();
        }
        entries.insert(key, cached.clone());
        Ok(cached)
    }

    /// `(compiles, hits)` counters: scripts compiled from source, and
    /// lookups answered from the cache.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.compiles.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
        )
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_once_and_hits_thereafter() {
        let cache = ProgramCache::new();
        let a1 = cache.get_or_compile("1 + 2").unwrap();
        let a2 = cache.get_or_compile("1 + 2").unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        let _b = cache.get_or_compile("3 * 4").unwrap();
        assert_eq!(cache.counters(), (2, 1));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let cache = ProgramCache::new();
        assert!(cache.get_or_compile("var x = ;").is_err());
        assert!(cache.get_or_compile("var x = ;").is_err());
        assert_eq!(cache.counters(), (0, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn the_harness_entry_point_runs_a_cached_script() {
        let cache = ProgramCache::new();
        let script = cache.get_or_compile("var x = 20; x * 2 + 2").unwrap();
        let ctx = Context::new();
        nakika_script::stdlib::install(&ctx);
        assert_eq!(
            ScriptEngine::Vm.run(&ctx, &script).unwrap(),
            Value::Number(42.0)
        );
    }
}
