//! Fault-injection and zero-hand-off pins for the reactor's origin splice.
//!
//! A cache miss is answered by an event-loop relay: the reactor opens the origin connection itself, in the same
//! poller as the clients, and splices bytes across with no worker-pool
//! hand-off.  These tests pin the three properties that make that safe to
//! rely on:
//!
//! 1. **Zero hand-offs** — a reactor cold miss completes without a single
//!    worker-pool submission (`ServerStats::worker_submissions`), and a
//!    service that publishes no relay plan for the same miss is answered
//!    by the blocking executor on the worker pool with identical bytes.
//! 2. **Truncation is surfaced** — an origin that dies mid-body aborts the
//!    client connection (counted in `ServerStats::relay_aborts`), never
//!    silently repairs the framing.  Both executors of a miss agree.
//! 3. **Stalls are evicted** — an origin that accepts and then goes silent
//!    is evicted by the reactor's timer wheel at `idle_timeout_ms` while
//!    64 warm keep-alive clients on the same event loop keep receiving
//!    byte-identical responses.

use nakika_core::service::{service_fn, DispatchHint, HttpService, NakikaError, RequestCtx};
use nakika_core::{NodeBuilder, NodeHandle};
use nakika_http::{Request, Response, StatusCode};
use nakika_server::{
    http_get_via_proxy, HttpServer, ProxyClient, ReactorConfig, ServerOptions, TcpOrigin,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn cacheable_origin() -> HttpServer {
    HttpServer::start(
        0,
        service_fn(|req: Request, _ctx| {
            Ok(
                Response::ok("text/html", format!("origin body for {}", req.uri.path))
                    .with_header("Cache-Control", "max-age=600"),
            )
        }),
    )
    .expect("origin starts")
}

fn edge_service() -> (NodeHandle, Arc<dyn HttpService>) {
    let edge = NodeBuilder::plain_proxy("splice-edge")
        .origin(Arc::new(TcpOrigin::new()))
        .build();
    let service = edge.service();
    (edge, service)
}

/// The edge service with its relay plan withheld: it keeps the trait's
/// default `relay_plan` (`None`), so every miss is one the splice refuses
/// and runs on the blocking executor in the worker pool.
struct Unplanned(Arc<dyn HttpService>);

impl HttpService for Unplanned {
    fn call(&self, req: Request, ctx: &RequestCtx) -> Result<Response, NakikaError> {
        self.0.call(req, ctx)
    }

    fn dispatch_hint(&self, req: &Request, ctx: &RequestCtx) -> DispatchHint {
        self.0.dispatch_hint(req, ctx)
    }
}

/// A proxy on one event loop, relaying misses by the splice when `service`
/// publishes a plan and by the blocking executor on the worker pool when
/// it does not.
fn one_loop_proxy(service: Arc<dyn HttpService>) -> HttpServer {
    HttpServer::start_reactor(
        0,
        service,
        ReactorConfig {
            reactors: 1,
            workers: 2,
            ..ReactorConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn reactor_cold_miss_relays_with_zero_worker_handoffs() {
    let origin = cacheable_origin();
    let urls: Vec<String> = (0..5)
        .map(|i| format!("{}/cold/{i}.html", origin.base_url()))
        .collect();

    // A plan for every miss: each must be relayed on the event loop — no
    // worker-pool job for the call, none for body pulls.
    let (_edge, service) = edge_service();
    let spliced = one_loop_proxy(service);
    let mut spliced_bodies = Vec::new();
    for url in &urls {
        let response = http_get_via_proxy(spliced.addr(), url).unwrap();
        assert_eq!(response.status, StatusCode::OK);
        spliced_bodies.push(response.body.to_text());
    }
    // A warm re-fetch stays inline, adding neither submissions nor relays.
    let warm = http_get_via_proxy(spliced.addr(), &urls[0]).unwrap();
    assert_eq!(warm.body.to_text(), spliced_bodies[0]);
    assert_eq!(
        spliced.stats().worker_submissions(),
        0,
        "a spliced miss must not touch the worker pool"
    );
    assert_eq!(
        spliced.stats().spliced_relays(),
        urls.len() as u64,
        "every cold miss was relayed on the event loop"
    );
    assert_eq!(spliced.stats().relay_aborts(), 0);

    // No plan: the same workload rides the worker pool, byte-identical.
    let (_edge, service) = edge_service();
    let pooled = one_loop_proxy(Arc::new(Unplanned(service)));
    let mut pooled_bodies = Vec::new();
    for url in &urls {
        let response = http_get_via_proxy(pooled.addr(), url).unwrap();
        assert_eq!(response.status, StatusCode::OK);
        pooled_bodies.push(response.body.to_text());
    }
    assert_eq!(pooled.stats().spliced_relays(), 0);
    assert!(
        pooled.stats().worker_submissions() >= urls.len() as u64,
        "without a relay plan every miss is a pool job"
    );
    assert_eq!(spliced_bodies, pooled_bodies, "paths are byte-identical");
}

/// A raw TCP origin: reads each connection's request head (the tests only
/// send GETs), lets `reply` write whatever it wants, and closes.
fn raw_origin(reply: impl Fn(&mut TcpStream) + Send + 'static) -> SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        while let Ok((mut stream, _)) = listener.accept() {
            let mut buf = Vec::new();
            let mut chunk = [0u8; 1024];
            while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
            }
            reply(&mut stream);
            // Dropping the stream here closes the connection.
        }
    });
    addr
}

/// A raw TCP origin that answers every connection with a 200 head
/// declaring `declared` body bytes but sends only `sent` before closing.
fn truncating_origin(declared: usize, sent: usize) -> SocketAddr {
    raw_origin(move |stream| {
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\
             Cache-Control: max-age=600\r\nContent-Length: {declared}\r\n\r\n"
        );
        let _ = stream.write_all(head.as_bytes());
        let _ = stream.write_all(&vec![b'x'; sent]);
    })
}

/// Sends one absolute-form GET through the proxy at `proxy` and drains the
/// connection to EOF, returning everything received.
fn raw_proxy_get(proxy: SocketAddr, url: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(proxy).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let host = url.trim_start_matches("http://").split('/').next().unwrap();
    let request = format!("GET {url} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).unwrap();
    let mut received = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => received.extend_from_slice(&chunk[..n]),
        }
    }
    received
}

/// Asserts that `received` carries the truncating origin's head but was cut
/// off before the declared body completed.
fn assert_truncated(received: &[u8], declared: usize, executor: &str) {
    let head_end = received
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("{executor}: no response head in {} bytes", received.len()));
    let head = String::from_utf8_lossy(&received[..head_end]);
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "{executor}: the origin's head is relayed before the fault: {head}"
    );
    assert!(
        head.contains(&format!("Content-Length: {declared}")),
        "{executor}: framing is forwarded, not repaired: {head}"
    );
    let body_bytes = received.len() - head_end - 4;
    assert!(
        body_bytes < declared,
        "{executor}: the client must observe the truncation \
         (got {body_bytes} of {declared} declared bytes)"
    );
}

#[test]
fn origin_death_mid_stream_aborts_the_client_on_both_executors() {
    const DECLARED: usize = 256 * 1024;
    const SENT: usize = 8 * 1024;
    let origin = truncating_origin(DECLARED, SENT);
    let url = format!("http://{origin}/dead.html");

    let (_edge, service) = edge_service();
    let spliced = one_loop_proxy(service);
    let received = raw_proxy_get(spliced.addr(), &url);
    assert_truncated(&received, DECLARED, "splice");
    assert!(
        spliced.stats().relay_aborts() >= 1,
        "the truncation is counted, not silently dropped"
    );
    assert_eq!(
        spliced.stats().worker_submissions(),
        0,
        "the failing relay still never touched the worker pool"
    );

    let (_edge, service) = edge_service();
    let pooled = one_loop_proxy(Arc::new(Unplanned(service)));
    let received = raw_proxy_get(pooled.addr(), &url);
    assert_truncated(&received, DECLARED, "blocking executor");
}

/// A raw TCP origin in the HTTP/1.0 style: a head with neither
/// `Content-Length` nor chunked framing, then `body`, then close.
fn close_delimiting_origin(body: &'static [u8]) -> SocketAddr {
    raw_origin(move |stream| {
        let _ = stream.write_all(b"HTTP/1.0 200 OK\r\nCache-Control: max-age=60\r\n\r\n");
        let _ = stream.write_all(body);
    })
}

#[test]
fn close_delimited_bodies_are_relayed_and_cached_on_both_executors() {
    const BODY: &[u8] = b"a body delimited by nothing but the close";
    let origin = close_delimiting_origin(BODY);
    let url = format!("http://{origin}/legacy.html");

    let (spliced_edge, service) = edge_service();
    let spliced = one_loop_proxy(service);
    let (pooled_edge, service) = edge_service();
    let pooled = one_loop_proxy(Arc::new(Unplanned(service)));

    for (proxy, edge, executor) in [
        (spliced.addr(), &spliced_edge, "splice"),
        (pooled.addr(), &pooled_edge, "blocking executor"),
    ] {
        let first = http_get_via_proxy(proxy, &url).unwrap();
        assert_eq!(first.status, StatusCode::OK, "{executor}");
        assert_eq!(
            first.body.to_bytes().as_ref(),
            BODY,
            "{executor}: the body runs to the upstream's EOF"
        );
        let second = http_get_via_proxy(proxy, &url).unwrap();
        assert_eq!(second.body.to_bytes().as_ref(), BODY, "{executor}");
        let stats = edge.node().cache_stats();
        assert_eq!(stats.inserts, 1, "{executor}: the full instance is cached");
        assert_eq!(stats.hits, 1, "{executor}: the second request is a hit");
        assert_eq!(edge.node().stats().origin_fetches, 1, "{executor}");
    }
    assert_eq!(spliced.stats().spliced_relays(), 1);
    assert_eq!(spliced.stats().worker_submissions(), 0);
}

/// A raw TCP origin that accepts, reads the request, and then never
/// answers — the stalled-upstream case the timer wheel must reclaim.
fn stalling_origin() -> SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((stream, _)) = listener.accept() {
            // Hold the socket open without ever writing a byte.
            held.push(stream);
        }
    });
    addr
}

#[test]
fn stalled_origin_is_evicted_while_warm_clients_stay_byte_identical() {
    const WARM_CLIENTS: usize = 64;
    const WARM_REQUESTS: usize = 10;
    const IDLE_TIMEOUT_MS: u64 = 300;

    let origin = cacheable_origin();
    let warm_url = format!("{}/warm.html", origin.base_url());
    let stall = stalling_origin();
    let stall_url = format!("http://{stall}/never.html");

    let (_edge, service) = edge_service();
    // One reactor thread: the stalled upstream shares its event loop with
    // every warm client, so any mishandling (a blocking wait, a leaked
    // slot wedging the poller) would show up as warm-path corruption.
    let server = HttpServer::start_reactor(
        0,
        service,
        ReactorConfig {
            reactors: 1,
            workers: 2,
            options: ServerOptions {
                idle_timeout_ms: IDLE_TIMEOUT_MS,
                max_connections: 0,
            },
        },
    )
    .unwrap();

    // Warm the cache through the real origin.
    let first = http_get_via_proxy(server.addr(), &warm_url).unwrap();
    assert_eq!(first.status, StatusCode::OK);
    let expected = first.body.to_text();

    // Pin the stalled fetch in flight for the whole warm workload.
    let stalled = {
        let addr = server.addr();
        let url = stall_url.clone();
        std::thread::spawn(move || {
            let start = Instant::now();
            let response = http_get_via_proxy(addr, &url).expect("eviction answers, not drops");
            (start.elapsed(), response)
        })
    };

    let warm_workers: Vec<_> = (0..WARM_CLIENTS)
        .map(|_| {
            let addr = server.addr();
            let url = warm_url.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = ProxyClient::connect(addr).expect("warm client connects");
                for _ in 0..WARM_REQUESTS {
                    let response = client.get(&url).expect("warm exchange succeeds");
                    assert_eq!(response.status, StatusCode::OK);
                    assert_eq!(
                        response.body.to_text(),
                        expected,
                        "warm bytes unchanged while an upstream stalls"
                    );
                }
            })
        })
        .collect();
    for worker in warm_workers {
        worker.join().expect("warm client panicked");
    }

    let (elapsed, response) = stalled.join().expect("stalled client panicked");
    assert_eq!(
        response.status,
        StatusCode::BAD_GATEWAY,
        "the evicted relay surfaces as an upstream error"
    );
    assert!(
        elapsed >= Duration::from_millis(IDLE_TIMEOUT_MS),
        "the deadline really governed the eviction ({elapsed:?})"
    );
    assert!(
        server.stats().timeouts() >= 1,
        "the timer wheel counted the stalled upstream"
    );
    assert_eq!(
        server.stats().relay_aborts(),
        0,
        "no head was delivered, so nothing was aborted mid-stream"
    );
}
