//! Cooperative peer fetching over real TCP, in-process: edge nodes on
//! ephemeral localhost ports sharing one roster, with a counting origin so
//! every test can assert exactly who fetched what from where.
//!
//! The multi-process version of this story (one OS process per node,
//! stdio handshake) lives in `tests/edge_cluster.rs`; the protocol itself
//! is documented in `docs/CLUSTER.md`.

use nakika::{fetch_stats, start_local_node, LocalNode};
use nakika_core::peering::{PEER_HOP_HEADER, PEER_VIA_HEADER};
use nakika_core::service::{service_fn, HttpService};
use nakika_core::NodeBuilder;
use nakika_http::{Request, Response};
use nakika_overlay::{key_for, Overlay};
use nakika_server::{
    http_fetch_streaming_via_proxy, http_get_via_proxy, HttpServer, ReactorConfig, TcpOrigin,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An origin that counts every fetch that reaches it.
fn counting_origin() -> (HttpServer, Arc<AtomicU64>) {
    let hits = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&hits);
    let origin = HttpServer::start(
        0,
        service_fn(move |req: Request, _ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(
                Response::ok("text/html", format!("origin copy of {}", req.uri.path))
                    .with_header("Cache-Control", "max-age=600"),
            )
        }),
    )
    .expect("origin failed to start");
    (origin, hits)
}

/// The node stack's cache key for a GET of `url` (method + origin-form
/// URI); the tests use it to plant consistent-hash owners for a key.
fn get_key(url: &str) -> String {
    format!("GET {}", Request::get(url).uri.to_origin())
}

#[test]
fn a_miss_is_answered_by_the_peer_that_cached_the_key() {
    let (origin, origin_hits) = counting_origin();
    let overlay = Arc::new(Overlay::new());
    let a = start_local_node("peer-a", &overlay, None).expect("node a");
    let b = start_local_node("peer-b", &overlay, None).expect("node b");

    // The key's consistent-hash owner fetches it from the origin and caches
    // it; the other node is the one whose miss must cooperate.
    let url = format!("{}/shared.html", origin.base_url());
    let owner_member = overlay.owner_of(&get_key(&url)).expect("owner");
    let (owner, other): (&LocalNode, &LocalNode) = if owner_member.id == key_for("peer-a") {
        (&a, &b)
    } else {
        (&b, &a)
    };
    let via_owner = http_get_via_proxy(owner.server.addr(), &url).expect("fetch via owner");
    assert_eq!(origin_hits.load(Ordering::SeqCst), 1);

    // The other node has never seen the key: its miss must route to the
    // owner over TCP, not to the origin, and the bytes must be identical.
    let via_other = http_get_via_proxy(other.server.addr(), &url).expect("fetch via other");
    assert_eq!(via_other.body.to_bytes(), via_owner.body.to_bytes());
    assert_eq!(
        origin_hits.load(Ordering::SeqCst),
        1,
        "the peer answered; the origin must not be touched again"
    );
    let stats = fetch_stats(&other.base_url).expect("stats via other");
    assert_eq!(stats["peer_hits"], 1);
    assert_eq!(stats["peer_misses"], 0);
    assert_eq!(stats["origin_fetches"], 0);

    // The peer-fetched copy was teed into the other node's own cache on
    // the way through.
    let again = http_get_via_proxy(other.server.addr(), &url).expect("refetch via other");
    assert_eq!(again.body.to_bytes(), via_owner.body.to_bytes());
    assert_eq!(origin_hits.load(Ordering::SeqCst), 1);
    let stats = fetch_stats(&other.base_url).expect("stats via other");
    assert_eq!(stats["cache_hits"], 1);
    assert_eq!(stats["peer_hits"], 1, "second fetch was local, not peered");
}

#[test]
fn a_dead_peer_falls_back_to_the_origin_and_is_counted() {
    let (origin, origin_hits) = counting_origin();
    let overlay = Arc::new(Overlay::new());
    let a = start_local_node("fallback-a", &overlay, None).expect("node a");

    // Plant a consistent-hash owner for the key whose address nothing
    // listens on (bind an ephemeral port, then free it).
    let url = format!("{}/fallback.html", origin.base_url());
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
        format!("http://{}", listener.local_addr().expect("local addr"))
    };
    overlay.join_with_addr(key_for(&get_key(&url)), &dead_addr);

    // The client still gets the page: the failed peer attempt falls back
    // to the origin instead of surfacing as an error.
    let response = http_get_via_proxy(a.server.addr(), &url).expect("fetch via a");
    assert_eq!(
        response.body.to_bytes(),
        b"origin copy of /fallback.html".as_slice()
    );
    assert_eq!(origin_hits.load(Ordering::SeqCst), 1);

    // And the fallback is visible, not silent.
    let stats = fetch_stats(&a.base_url).expect("stats via a");
    assert_eq!(stats["peer_misses"], 1);
    assert_eq!(stats["peer_hits"], 0);
    assert_eq!(stats["origin_fetches"], 1);
}

#[test]
fn hop_budget_and_via_trail_stop_loops_at_the_tcp_boundary() {
    let (origin, origin_hits) = counting_origin();
    let overlay = Arc::new(Overlay::new());
    let a = start_local_node("loop-a", &overlay, None).expect("node a");

    // Plant an owner peer for both keys.  If either loop guard fails, the
    // request routes here and shows up in the peer counters.
    let exhausted_url = format!("{}/exhausted.html", origin.base_url());
    let revisited_url = format!("{}/revisited.html", origin.base_url());
    let b = start_local_node("loop-b", &overlay, None).expect("node b");
    for url in [&exhausted_url, &revisited_url] {
        overlay.join_with_addr(key_for(&get_key(url)), &b.base_url);
    }

    // A request that has spent its hop budget goes straight to the origin.
    let request = Request::get(&exhausted_url).with_header(PEER_HOP_HEADER, "2");
    let response = http_fetch_streaming_via_proxy(a.server.addr(), &request).expect("fetch");
    assert_eq!(
        response.body.to_bytes(),
        b"origin copy of /exhausted.html".as_slice()
    );

    // So does one whose Via trail says this node already forwarded it.
    let request = Request::get(&revisited_url)
        .with_header(PEER_HOP_HEADER, "1")
        .with_header(PEER_VIA_HEADER, "loop-b, loop-a");
    let response = http_fetch_streaming_via_proxy(a.server.addr(), &request).expect("fetch");
    assert_eq!(
        response.body.to_bytes(),
        b"origin copy of /revisited.html".as_slice()
    );

    assert_eq!(origin_hits.load(Ordering::SeqCst), 2);
    let stats = fetch_stats(&a.base_url).expect("stats via a");
    assert_eq!(stats["peer_hits"], 0, "loop guards must stop peer routing");
    assert_eq!(stats["peer_misses"], 0);
    assert_eq!(stats["origin_fetches"], 2);
}

#[test]
fn peer_fetches_reuse_one_pooled_keep_alive_connection() {
    let (origin, origin_hits) = counting_origin();
    let overlay = Arc::new(Overlay::new());
    let a = start_local_node("pool-a", &overlay, None).expect("node a");

    // Warm three keys into A's cache, then plant each key's consistent-hash
    // owner at A's address so B's misses all route there.
    let urls: Vec<String> = (0..3)
        .map(|i| format!("{}/pooled/{i}.html", origin.base_url()))
        .collect();
    for url in &urls {
        http_get_via_proxy(a.server.addr(), url).expect("warm a");
        overlay.join_with_addr(key_for(&get_key(url)), &a.base_url);
    }
    assert_eq!(origin_hits.load(Ordering::SeqCst), 3);

    // B is assembled by hand (instead of through `start_local_node`) so the
    // test keeps a handle on its `TcpOrigin` and can watch the pool.  It is
    // served through a `service_fn`, which publishes no relay plan, so its
    // misses take the blocking fetch path on the worker pool, as scripted
    // nodes' misses do; the spliced twin of this test is the next one.
    let fetcher = Arc::new(TcpOrigin::new());
    let id = key_for("pool-b");
    overlay.join(id);
    let handle = NodeBuilder::proxy_with_dht("pool-b")
        .overlay(Arc::clone(&overlay), id)
        .origin(fetcher.clone())
        .build();
    let service = handle.service();
    let unplanned = service_fn(move |req, ctx| service.call(req, ctx));
    let server = HttpServer::start(0, unplanned).expect("node b");
    let base_url = format!("http://{}", server.addr());
    handle.node().set_public_addr(&base_url);
    overlay.set_addr(id, &base_url);

    // Every fetch via B misses locally and is answered by A over TCP.
    for url in &urls {
        let response = http_get_via_proxy(server.addr(), url).expect("fetch via b");
        assert!(response.status.is_success());
    }
    assert_eq!(
        origin_hits.load(Ordering::SeqCst),
        3,
        "all three fetches must be peer-served, not origin-fetched"
    );
    let stats = fetch_stats(&base_url).expect("stats via b");
    assert_eq!(stats["peer_hits"], 3);
    assert_eq!(server.stats().spliced_relays(), 0);

    // One socket carried all three peer fetches: the connection was parked
    // after the first and reused — not re-dialed — by the rest.  A fetcher
    // dialing per request would have parked one idle socket per fetch.
    let peer_addr = a.server.addr();
    assert_eq!(
        fetcher.idle_connections(&peer_addr.ip().to_string(), peer_addr.port()),
        1,
        "peer fetches must share one pooled keep-alive connection"
    );
}

#[test]
fn spliced_peer_misses_reuse_the_connections_their_reactors_keep() {
    const MISSES: usize = 8;
    const B_REACTORS: usize = 2;
    let (origin, origin_hits) = counting_origin();
    let overlay = Arc::new(Overlay::new());
    let a = start_local_node("kept-a", &overlay, None).expect("node a");
    let urls: Vec<String> = (0..MISSES)
        .map(|i| format!("{}/kept/{i}.html", origin.base_url()))
        .collect();
    for url in &urls {
        http_get_via_proxy(a.server.addr(), url).expect("warm a");
        overlay.join_with_addr(key_for(&get_key(url)), &a.base_url);
    }

    // B serves the node stack itself, which publishes relay plans: its
    // misses are spliced on B's event loops, not run on its worker pool.
    let id = key_for("kept-b");
    overlay.join(id);
    let handle = NodeBuilder::proxy_with_dht("kept-b")
        .overlay(Arc::clone(&overlay), id)
        .origin(Arc::new(TcpOrigin::new()))
        .build();
    let b = HttpServer::start_reactor(
        0,
        handle.service(),
        ReactorConfig {
            reactors: B_REACTORS,
            ..ReactorConfig::default()
        },
    )
    .expect("node b");
    let base_url = format!("http://{}", b.addr());
    handle.node().set_public_addr(&base_url);
    overlay.set_addr(id, &base_url);

    // A closes the warm-up clients' connections on its own schedule.
    let deadline = Instant::now() + Duration::from_secs(10);
    while a.server.stats().open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "warm-up connections never closed"
        );
        std::thread::yield_now();
    }
    // One-shot clients land on B's reactors in turn; each reactor keeps
    // the connection it opened to A and reuses it for its next miss.
    for url in &urls {
        let response = http_get_via_proxy(b.addr(), url).expect("fetch via b");
        assert!(response.status.is_success());
        let open = a.server.stats().open_connections();
        assert!(
            open <= B_REACTORS,
            "{open} connections into A from {B_REACTORS} reactors"
        );
    }
    assert_eq!(origin_hits.load(Ordering::SeqCst), MISSES as u64);
    assert_eq!(handle.node().stats().peer_hits, MISSES as u64);
    assert_eq!(b.stats().spliced_relays(), MISSES as u64);
    assert_eq!(b.stats().worker_submissions(), 0);
    assert!(
        a.server.stats().open_connections() >= 1,
        "B keeps its connections into A open between misses"
    );
}

#[test]
fn a_local_cluster_node_splices_its_misses_and_answers_its_stats() {
    const MISSES: u64 = 20;
    let (origin, origin_hits) = counting_origin();
    let overlay = Arc::new(Overlay::new());
    let a = start_local_node("bare-a", &overlay, None).expect("node");
    // A DHT proxy runs without resource controls, so only a wrapper around
    // its service could keep its misses off the splice.
    assert!(!a.handle.node().config().resource.enabled);

    for i in 0..MISSES {
        let url = format!("{}/cold/{i}.html", origin.base_url());
        let response = http_get_via_proxy(a.server.addr(), &url).expect("fetch");
        assert!(response.status.is_success());
    }
    assert_eq!(origin_hits.load(Ordering::SeqCst), MISSES);
    assert_eq!(a.server.stats().spliced_relays(), MISSES);
    assert_eq!(a.server.stats().worker_submissions(), 0);

    // The same port still answers the node's counters.
    let stats = fetch_stats(&a.base_url).expect("stats");
    assert_eq!(stats["origin_fetches"], MISSES);
}

#[test]
fn hot_keys_replicate_to_the_successor_peer() {
    let (origin, origin_hits) = counting_origin();
    let overlay = Arc::new(Overlay::new());
    // threshold 1: the first local cache hit at the owner marks the key hot.
    let a = start_local_node("repl-a", &overlay, Some((1, 1))).expect("node a");
    let b = start_local_node("repl-b", &overlay, Some((1, 1))).expect("node b");

    let url = format!("{}/hot.html", origin.base_url());
    let owner_member = overlay.owner_of(&get_key(&url)).expect("owner");
    let (owner, successor): (&LocalNode, &LocalNode) = if owner_member.id == key_for("repl-a") {
        (&a, &b)
    } else {
        (&b, &a)
    };

    // Miss (fetches the origin, caches at the owner), then a hit, which
    // crosses the hot threshold and queues a replication push.
    http_get_via_proxy(owner.server.addr(), &url).expect("warm owner");
    http_get_via_proxy(owner.server.addr(), &url).expect("hit owner");

    // The owner's replication worker pushes the key through the
    // successor's proxy asynchronously; wait for it to land.
    let deadline = Instant::now() + Duration::from_secs(10);
    while owner.handle.node().stats().replication_pushes == 0 {
        assert!(
            Instant::now() < deadline,
            "replication push never happened: owner stats {:?}",
            owner.handle.node().stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The successor now holds its own copy: serving the key from it
    // touches neither the origin nor the owner.
    let before = origin_hits.load(Ordering::SeqCst);
    let response = http_get_via_proxy(successor.server.addr(), &url).expect("fetch via successor");
    assert_eq!(
        response.body.to_bytes(),
        b"origin copy of /hot.html".as_slice()
    );
    assert_eq!(origin_hits.load(Ordering::SeqCst), before);
    let stats = fetch_stats(&successor.base_url).expect("successor stats");
    assert_eq!(stats["origin_fetches"], 0);
    assert!(
        stats["cache_hits"] >= 1,
        "the replicated copy must be served from the successor's own cache: {stats:?}"
    );
}
