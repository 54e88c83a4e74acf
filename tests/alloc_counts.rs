//! Allocation counts as a gate: deterministic per-request costs that do not
//! drift with the machine the way wall-clock timings do.
//!
//! A counting global allocator keeps its counters per thread, so tests that
//! run in parallel do not see each other's allocations.  Each test prints
//! what it counted before asserting, so a regression names its new count.

use bytes::Bytes;
use nakika_core::service::{CtxFactory, DispatchHint, HttpService};
use nakika_core::NodeBuilder;
use nakika_http::{
    parse_request, parse_response_head, Body, Headers, ParseOutcome, Request, Response,
    ResponseWriter,
};
use nakika_server::WallClock;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::{Arc, Mutex};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    // A thread being torn down has no counters left; its frees go uncounted.
    let _ = counter.try_with(|c| c.set(c.get() + by));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's.  The counters are `const`
// thread-locals without destructors, so bumping one never allocates or
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&ALLOC_BYTES, layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&ALLOC_BYTES, layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    /// A reallocation counts as one allocation of the new size.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&ALLOC_BYTES, new_size as u64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES, 1);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one closure cost this thread's allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    allocs: u64,
    bytes: u64,
    frees: u64,
}

fn snapshot() -> Counts {
    Counts {
        allocs: ALLOCS.with(Cell::get),
        bytes: ALLOC_BYTES.with(Cell::get),
        frees: FREES.with(Cell::get),
    }
}

fn counted<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let before = snapshot();
    let result = f();
    let after = snapshot();
    let counts = Counts {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
        frees: after.frees - before.frees,
    };
    (result, counts)
}

const LOOPBACK: IpAddr = IpAddr::V4(Ipv4Addr::LOCALHOST);
const AUTHORITY: &str = "127.0.0.1:8080";
const PATH: &str = "/b2096/hit_small-k0.html";

/// Allocations of one warm plain hit, measured as the test below measures
/// it; the gate allows [`SLACK`] more.
const WARM_HIT_ALLOCS: u64 = 37;
const SLACK: u64 = 2;

fn parse(wire: &[u8]) -> Request {
    match parse_request(wire) {
        Ok(ParseOutcome::Complete { message, .. }) => message,
        other => panic!("request did not parse: {other:?}"),
    }
}

/// A warm hit on the benchmark's `hit_small` request shape, served the way
/// a transport serves it: parse, dispatch hint, `call`, then a
/// `ResponseWriter` drained part by part.
#[test]
fn warm_plain_hit_allocations() {
    let node = NodeBuilder::plain_proxy("alloc-edge")
        .origin_fn(|_: &Request| {
            Response::ok("text/html", vec![b'x'; 2096]).with_header("Cache-Control", "max-age=600")
        })
        .build();
    let ctx_factory = CtxFactory::new(Arc::new(WallClock));
    let wire = format!("GET http://{AUTHORITY}{PATH} HTTP/1.1\r\nHost: {AUTHORITY}\r\n\r\n");
    let hit = || {
        let mut request = parse(wire.as_bytes());
        request.client_ip = LOOPBACK;
        let ctx = ctx_factory.make(LOOPBACK);
        let hint = node.dispatch_hint(&request, &ctx);
        let response = node.call(request, &ctx).expect("request is served");
        assert!(response.status.is_success());
        let mut writer = ResponseWriter::new(response);
        let mut bytes = 0;
        while let Some(part) = writer.next_part().expect("body drains") {
            bytes += part.len();
        }
        (hint, bytes)
    };
    // The first call misses and fills the cache; the second warms up
    // whatever is built lazily on the hit path.
    hit();
    hit();
    let ((hint, bytes), counts) = counted(hit);
    eprintln!("warm plain hit: {counts:?}");
    assert_eq!(hint, DispatchHint::Inline);
    assert!(bytes > 2096);
    assert!(
        counts.allocs <= WARM_HIT_ALLOCS + SLACK,
        "a warm hit made {} allocations, gate {WARM_HIT_ALLOCS} + {SLACK}",
        counts.allocs
    );
}

/// A stored head is cloned on every hit; cloning one costs the map's two
/// buffers, however many fields it holds.
#[test]
fn three_field_headers_clone_is_two_allocations() {
    let mut headers = Headers::new();
    headers.append("Content-Type", "text/html");
    headers.append("Content-Length", "2096");
    headers.append("Cache-Control", "max-age=600");
    let (clone, counts) = counted(|| headers.clone());
    eprintln!("3-field clone: {counts:?}");
    assert_eq!(clone, headers);
    assert_eq!(counts.allocs, 2);
}

/// A parsed head sizes its header map once.  A request head's map holds
/// two buffers; a response head allocates nothing else, so its parse is
/// exactly those two, with no growth.
#[test]
fn parsed_one_header_head_has_two_header_allocations() {
    let wire = format!("GET {PATH} HTTP/1.1\r\nHost: {AUTHORITY}\r\n\r\n");
    let (mut request, _) = counted(|| parse(wire.as_bytes()));
    let headers = std::mem::take(&mut request.headers);
    let ((), dropping) = counted(|| drop(headers));
    eprintln!("one-header request head: headers freed {dropping:?}");
    assert_eq!(dropping.frees, 2);

    let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
    let (head, parsing) = counted(|| parse_response_head(wire));
    eprintln!("one-header response head: parse {parsing:?}");
    assert!(matches!(head, Ok(ParseOutcome::Complete { .. })));
    assert_eq!(parsing.allocs, 2);
}

/// A cache capture keeps the chunks it relays: teeing a 1 MiB body that
/// arrives as 64 chunks of 16 KiB allocates the list that holds them, not
/// a second copy of the body.
#[test]
fn teeing_a_mib_body_copies_none_of_it() {
    const MIB: usize = 1 << 20;
    let chunks: Vec<Bytes> = (0..64u8).map(|i| Bytes::from(vec![i; 16 * 1024])).collect();
    let stored = Arc::new(Mutex::new(None));
    let slot = stored.clone();
    let mut teed = Body::stream_from_iter(chunks, Some(MIB as u64))
        .tee(32 * MIB, move |body| *slot.lock().unwrap() = Some(body));
    let (drained, counts) = counted(|| {
        let mut drained = 0;
        while let Some(chunk) = teed.read_chunk().expect("the body drains") {
            drained += chunk.len();
        }
        drained
    });
    eprintln!("1 MiB tee, 64 x 16 KiB chunks: {counts:?}");
    assert_eq!(drained, MIB);
    let stored = stored.lock().unwrap().take().expect("the capture fired");
    assert_eq!(stored.len(), MIB);
    assert!(
        counts.bytes <= 8 * 1024,
        "teeing 1 MiB allocated {} B",
        counts.bytes
    );
}
