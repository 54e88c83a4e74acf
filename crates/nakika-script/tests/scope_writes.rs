//! A write to a variable that already exists allocates nothing.
//!
//! Every `StoreName` / `DeclName` of scoped-mode code (the top level of
//! every stage script, any function holding a closure) and every
//! `Context::set_global` lands in `Scope::assign` / `Scope::declare`; the
//! map's key is only needed, and only allocated, the first time a name is
//! seen.  Counted with an allocator that tallies per thread, so the other
//! tests of this binary cannot disturb the count.

use nakika_script::context::Scope;
use nakika_script::{Context, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is passed to `System` unchanged; the only addition
// is a thread-local counter with no destructor, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get();
    work();
    ALLOCATIONS.get() - before
}

#[test]
fn writing_an_existing_variable_allocates_nothing_and_is_counted() {
    let globals = Scope::new();
    globals.declare("hits", Value::Number(0.0));
    let block = globals.child().child();
    let written = globals.writes();
    let allocations = allocations_during(|| {
        for n in 0..10_000 {
            // Found two scopes up, as a handler's `hits = hits + 1` is.
            block.assign("hits", Value::Number(n as f64));
        }
    });
    assert_eq!(allocations, 0);
    assert_eq!(globals.writes() - written, 10_000);
    assert_eq!(block.writes(), 0, "the write is the global scope's");
    assert_eq!(globals.get("hits"), Some(Value::Number(9_999.0)));

    // Re-declaring — what re-pointing a vocabulary global does — likewise.
    let ctx = Context::new();
    ctx.set_global("Request", Value::Null);
    let written = ctx.globals.writes();
    let allocations = allocations_during(|| {
        for _ in 0..10_000 {
            ctx.set_global("Request", Value::Undefined);
        }
    });
    assert_eq!(allocations, 0);
    assert_eq!(ctx.globals.writes() - written, 10_000);

    // A name nobody declared is made in the outermost scope: one write
    // there, and this time a key to allocate.
    let written = globals.writes();
    assert!(allocations_during(|| block.assign("fresh", Value::Bool(true))) > 0);
    assert_eq!(globals.writes() - written, 1);
}
