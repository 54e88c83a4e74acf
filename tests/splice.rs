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
//! 4. **Upstreams are kept alive, and only when they can be** — a reactor
//!    keeps a cleanly finished upstream connection idle (at most four per
//!    `host:port`) and the next miss reuses it; a response that forbids
//!    reuse closes it; a kept connection that went stale is retried on a
//!    fresh one without a 502; idle ones close at the idle timeout and
//!    with the server, quietly.

use nakika_core::service::{service_fn, DispatchHint, HttpService, NakikaError, RequestCtx};
use nakika_core::{NodeBuilder, NodeHandle};
use nakika_http::{parse_response, ParseOutcome, Request, Response, StatusCode};
use nakika_overlay::{key_for, Membership, MembershipConfig, Overlay};
use nakika_server::{
    http_get_via_proxy, HttpServer, ProxyClient, ReactorConfig, ServerOptions, TcpOrigin,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
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

/// A node that redirects clients to live key owners still splices its own
/// misses: the redirect is a roster lookup answered inline, and every
/// other miss publishes a relay plan like any DHT proxy's.
#[test]
fn a_redirecting_node_splices_its_own_misses_and_redirects_inline() {
    let origin = cacheable_origin();
    let overlay = Arc::new(Overlay::new());
    let me = key_for("edge-a");
    let peer = key_for("edge-b");
    overlay.join(me);
    overlay.join_with_addr(peer, "http://edge-b.example");
    // No self address: probing stays dormant, so edge-b stays alive.
    let roster = Membership::with_manual_clock("edge-a", MembershipConfig::default());
    roster.merge_digest("self edge-b http://edge-b.example 0");
    let edge = NodeBuilder::proxy_with_dht("edge-a")
        .overlay(Arc::clone(&overlay), me)
        .gossip(Arc::new(roster))
        .redirect_to_owner()
        .origin(Arc::new(TcpOrigin::new()))
        .build();
    let proxy = one_loop_proxy(edge.service());

    let owned_by = |id| {
        (0..)
            .map(|i| format!("{}/owner/{i}.html", origin.base_url()))
            .find(|url| {
                let key = format!("GET {}", Request::get(url).uri);
                overlay.owner_of(&key).is_some_and(|m| m.id == id)
            })
            .expect("some key hashes to the node")
    };

    let own = http_get_via_proxy(proxy.addr(), &owned_by(me)).unwrap();
    assert_eq!(own.status, StatusCode::OK);
    assert_eq!(proxy.stats().spliced_relays(), 1, "an own miss is spliced");

    let peers_url = owned_by(peer);
    let redirect = http_get_via_proxy(proxy.addr(), &peers_url).unwrap();
    assert_eq!(redirect.status, StatusCode::TEMPORARY_REDIRECT);
    let expected = peers_url.replace(&origin.base_url(), "http://edge-b.example");
    assert_eq!(redirect.headers.get("Location"), Some(expected.as_str()));
    assert_eq!(edge.node().stats().owner_redirects, 1);
    assert_eq!(proxy.stats().spliced_relays(), 1);
    assert_eq!(proxy.stats().worker_submissions(), 0, "no pool jobs");
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
fn close_delimiting_origin(body: Vec<u8>) -> SocketAddr {
    raw_origin(move |stream| {
        let _ = stream.write_all(b"HTTP/1.0 200 OK\r\nCache-Control: max-age=60\r\n\r\n");
        let _ = stream.write_all(&body);
    })
}

/// `len` bytes of a pattern that never lines up with a chunk boundary.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// Sends one absolute-form GET through the proxy at `proxy` from a slow
/// client — 16 KiB per read, a pause every four reads — and parses the
/// reply it drains to EOF.  A relay that stops feeding it fails the read
/// at the timeout instead of hanging.
fn slow_proxy_get(proxy: SocketAddr, url: &str) -> Response {
    let mut stream = TcpStream::connect(proxy).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let host = url.trim_start_matches("http://").split('/').next().unwrap();
    let request = format!("GET {url} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).unwrap();
    let mut received = Vec::new();
    let mut chunk = vec![0u8; 16 * 1024];
    for reads in 1.. {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => received.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("the relay stalled after {} bytes: {e}", received.len()),
        }
        if reads % 4 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    match parse_response(&received) {
        Ok(ParseOutcome::Complete { message, .. }) => message,
        _ => panic!("an incomplete reply of {} bytes", received.len()),
    }
}

#[test]
fn close_delimited_bodies_are_relayed_and_cached_on_both_executors() {
    // The second body is past the splice's high-water mark and read
    // slowly: the 1.0 framing needs all of it before the head goes out,
    // so its upstream must never pause for the client.
    let inputs = [
        (b"a body delimited by nothing but the close".to_vec(), false),
        (pattern(1024 * 1024), true),
    ];
    for (body, slow) in inputs {
        let origin = close_delimiting_origin(body.clone());
        let url = format!("http://{origin}/legacy.html");

        let (spliced_edge, service) = edge_service();
        let spliced = one_loop_proxy(service);
        let (pooled_edge, service) = edge_service();
        let pooled = one_loop_proxy(Arc::new(Unplanned(service)));

        for (proxy, edge, executor) in [
            (spliced.addr(), &spliced_edge, "splice"),
            (pooled.addr(), &pooled_edge, "blocking executor"),
        ] {
            let first = if slow {
                slow_proxy_get(proxy, &url)
            } else {
                http_get_via_proxy(proxy, &url).unwrap()
            };
            assert_eq!(first.status, StatusCode::OK, "{executor}");
            assert!(
                first.body.to_bytes() == body,
                "{executor}: the body runs to the upstream's EOF"
            );
            let second = http_get_via_proxy(proxy, &url).unwrap();
            assert!(second.body.to_bytes() == body, "{executor}");
            let stats = edge.node().cache_stats();
            assert_eq!(stats.inserts, 1, "{executor}: the full instance is cached");
            assert_eq!(stats.hits, 1, "{executor}: the second request is a hit");
            assert_eq!(edge.node().stats().origin_fetches, 1, "{executor}");
        }
        assert_eq!(spliced.stats().spliced_relays(), 1);
        assert_eq!(spliced.stats().worker_submissions(), 0);
    }
}

/// A raw TCP origin answering with `body`, framed by `Content-Length` or,
/// when `chunked`, in 64 KiB chunks.
fn bulk_origin(body: Vec<u8>, chunked: bool) -> SocketAddr {
    raw_origin(move |stream| {
        if !chunked {
            let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len());
            let _ = stream.write_all(head.as_bytes());
            let _ = stream.write_all(&body);
            return;
        }
        let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n");
        for chunk in body.chunks(64 * 1024) {
            let _ = write!(stream, "{:x}\r\n", chunk.len());
            let _ = stream.write_all(chunk);
            let _ = stream.write_all(b"\r\n");
        }
        let _ = stream.write_all(b"0\r\n\r\n");
    })
}

/// A client slower than its origin fills the splice queue: the upstream
/// pauses at the high-water mark and resumes as the client drains it,
/// until every byte arrived — all on the event loop.
#[test]
fn a_slow_reader_pauses_and_resumes_its_splice() {
    let body = pattern(8 * 1024 * 1024);
    for (chunked, framing) in [(false, "Content-Length"), (true, "chunked")] {
        let origin = bulk_origin(body.clone(), chunked);
        // Too small a cache to keep the body: every byte is relayed.
        let edge = NodeBuilder::plain_proxy("slow-edge")
            .cache_capacity_bytes(64 * 1024)
            .origin(Arc::new(TcpOrigin::new()))
            .build();
        let proxy = one_loop_proxy(edge.service());
        let response = slow_proxy_get(proxy.addr(), &format!("http://{origin}/big.bin"));
        assert_eq!(response.status, StatusCode::OK, "{framing}");
        assert!(
            response.body.to_bytes() == body,
            "{framing}: byte-identical"
        );
        assert_eq!(proxy.stats().spliced_relays(), 1, "{framing}");
        assert_eq!(proxy.stats().worker_submissions(), 0, "{framing}");
    }
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

/// What a [`keep_alive_origin`] does with a connection after a reply.
#[derive(Clone, Copy, PartialEq)]
enum After {
    /// Wait for the next request.
    Keep,
    /// Hang up at once.
    Close,
    /// Hang up when the next request arrives, unanswered — an upstream
    /// whose keep-alive timeout raced the edge's reuse.
    CloseAtNextRequest,
}

/// A raw TCP origin serving any number of requests per connection, one
/// thread per connection.  `answer` gets each request's method and path
/// and returns the reply bytes and what to do next.
struct KeepAliveOrigin {
    addr: SocketAddr,
    /// Connections accepted.
    accepts: Arc<AtomicUsize>,
    /// One message per connection the edge closed (EOF or reset).
    edge_closed: mpsc::Receiver<()>,
}

fn keep_alive_origin(
    answer: impl Fn(&str, &str) -> (Vec<u8>, After) + Send + Sync + 'static,
) -> KeepAliveOrigin {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let accepts = Arc::new(AtomicUsize::new(0));
    let (closed_tx, edge_closed) = mpsc::channel();
    let answer = Arc::new(answer);
    let counter = accepts.clone();
    std::thread::spawn(move || {
        while let Ok((mut stream, _)) = listener.accept() {
            counter.fetch_add(1, Ordering::SeqCst);
            let (answer, closed_tx) = (answer.clone(), closed_tx.clone());
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 4096];
                let mut hang_up_at_next = false;
                loop {
                    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
                        match stream.read(&mut chunk) {
                            Ok(0) | Err(_) => {
                                let _ = closed_tx.send(());
                                return;
                            }
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        }
                        continue;
                    };
                    if hang_up_at_next {
                        return;
                    }
                    let head = String::from_utf8_lossy(&buf[..end]).into_owned();
                    buf.drain(..end + 4);
                    let mut line = head.split(' ');
                    let (method, target) = (line.next().unwrap(), line.next().unwrap());
                    // Absolute-form targets carry the authority first.
                    let path = target.trim_start_matches("http://");
                    let path = &path[path.find('/').unwrap_or(0)..];
                    let (reply, after) = answer(method, path);
                    if stream.write_all(&reply).is_err() || after == After::Close {
                        return;
                    }
                    hang_up_at_next = after == After::CloseAtNextRequest;
                }
            });
        }
    });
    KeepAliveOrigin {
        addr,
        accepts,
        edge_closed,
    }
}

impl KeepAliveOrigin {
    fn url(&self, path: &str) -> String {
        format!("http://{}{path}", self.addr)
    }

    fn accepts(&self) -> usize {
        self.accepts.load(Ordering::SeqCst)
    }

    /// Blocks until the edge closed one more connection (or panics after a
    /// generous bound).
    fn await_edge_close(&self) {
        self.edge_closed
            .recv_timeout(Duration::from_secs(10))
            .expect("the edge closed an upstream connection");
    }
}

/// A cacheable 200 whose body names `path`, framed by `Content-Length`.
fn page(path: &str) -> Vec<u8> {
    let body = page_body(path);
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nCache-Control: max-age=600\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn page_body(path: &str) -> String {
    format!("kept-alive origin page {path}")
}

/// A one-loop splicing proxy (`idle_timeout_ms` 0 = the default).
fn kept_alive_proxy(idle_timeout_ms: u64) -> (NodeHandle, HttpServer) {
    let (edge, service) = edge_service();
    let server = HttpServer::start_reactor(
        0,
        service,
        ReactorConfig {
            reactors: 1,
            workers: 2,
            options: ServerOptions {
                idle_timeout_ms,
                max_connections: 0,
            },
        },
    )
    .unwrap();
    (edge, server)
}

#[test]
fn sequential_misses_reuse_one_upstream_connection() {
    const MISSES: usize = 200;
    let origin = keep_alive_origin(|_, path| (page(path), After::Keep));
    let (_edge, proxy) = kept_alive_proxy(0);
    let mut client = ProxyClient::connect(proxy.addr()).unwrap();
    for i in 0..MISSES {
        let path = format!("/seq/{i}");
        let response = client.get(&origin.url(&path)).unwrap();
        assert_eq!(response.status, StatusCode::OK);
        assert_eq!(response.body.to_text(), page_body(&path), "miss {i}");
    }
    assert_eq!(
        origin.accepts(),
        1,
        "one upstream connection carried every miss"
    );
    assert_eq!(proxy.stats().spliced_relays(), MISSES as u64);
    assert_eq!(proxy.stats().worker_submissions(), 0);
    assert_eq!(proxy.stats().relay_aborts(), 0);
}

#[test]
fn kept_connections_the_upstream_hung_up_are_retried_not_failed() {
    // Hung up right after the reply, the idle connection is usually closed
    // on its EOF before the next miss; hung up when the next request
    // arrives, every reuse finds it stale.  Either way each miss gets its
    // page over exactly one fresh connection, and nothing is counted.
    const MISSES: usize = 200;
    for after in [After::Close, After::CloseAtNextRequest] {
        let origin = keep_alive_origin(move |_, path| (page(path), after));
        let (_edge, proxy) = kept_alive_proxy(0);
        let mut client = ProxyClient::connect(proxy.addr()).unwrap();
        for i in 0..MISSES {
            let path = format!("/stale/{i}");
            let response = client.get(&origin.url(&path)).unwrap();
            assert_eq!(response.status, StatusCode::OK, "miss {i}");
            assert_eq!(response.body.to_text(), page_body(&path));
        }
        assert_eq!(origin.accepts(), MISSES);
        assert_eq!(proxy.stats().spliced_relays(), MISSES as u64);
        assert_eq!(proxy.stats().relay_aborts(), 0);
        assert_eq!(proxy.stats().timeouts(), 0);
        assert_eq!(proxy.stats().worker_submissions(), 0);
    }
}

#[test]
fn responses_that_forbid_reuse_are_never_kept() {
    const MISSES: usize = 3;
    let cases: [(&str, &'static [u8], After); 4] = [
        (
            "Connection: close",
            b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
            After::Close,
        ),
        (
            "HTTP/1.0",
            b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
            After::Keep,
        ),
        (
            "surplus bytes",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokEXTRA",
            After::Keep,
        ),
        (
            "close-delimited",
            b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nok",
            After::Close,
        ),
    ];
    for (case, reply, after) in cases {
        let origin = keep_alive_origin(move |_, _| (reply.to_vec(), after));
        let (_edge, proxy) = kept_alive_proxy(0);
        let mut client = ProxyClient::connect(proxy.addr()).unwrap();
        for i in 0..MISSES {
            let response = client.get(&origin.url(&format!("/no-reuse/{i}"))).unwrap();
            assert_eq!(response.status, StatusCode::OK, "{case}");
            assert_eq!(response.body.to_text(), "ok", "{case}");
        }
        assert_eq!(origin.accepts(), MISSES, "{case}: one connection per miss");
        assert_eq!(proxy.stats().relay_aborts(), 0, "{case}");
    }
}

#[test]
fn an_idle_upstream_closes_quietly_at_the_idle_timeout() {
    const IDLE_TIMEOUT_MS: u64 = 200;
    let origin = keep_alive_origin(|_, path| (page(path), After::Keep));
    let (_edge, proxy) = kept_alive_proxy(IDLE_TIMEOUT_MS);
    // A one-shot client, so no client connection is left to time out.
    let response = http_get_via_proxy(proxy.addr(), &origin.url("/idle")).unwrap();
    let idled = Instant::now();
    assert_eq!(response.status, StatusCode::OK);
    origin.await_edge_close();
    assert!(
        idled.elapsed() >= Duration::from_millis(IDLE_TIMEOUT_MS / 2),
        "closed by its deadline, not at once ({:?})",
        idled.elapsed()
    );
    assert_eq!(origin.accepts(), 1);
    assert_eq!(proxy.stats().timeouts(), 0, "idle expiry is not a timeout");
    assert_eq!(proxy.stats().relay_aborts(), 0);
}

#[test]
fn dropping_the_server_closes_its_idle_upstreams() {
    let origin = keep_alive_origin(|_, path| (page(path), After::Keep));
    let (_edge, proxy) = kept_alive_proxy(0);
    let response = http_get_via_proxy(proxy.addr(), &origin.url("/drop")).unwrap();
    assert_eq!(response.status, StatusCode::OK);
    assert!(
        origin.edge_closed.try_recv().is_err(),
        "the upstream connection is kept while the server runs"
    );
    drop(proxy);
    origin.await_edge_close();
    assert_eq!(origin.accepts(), 1);
}

#[test]
fn at_most_four_idle_connections_per_upstream_are_kept() {
    const CONCURRENT: usize = 8;
    const KEPT: usize = 4;
    // The origin holds its first replies until every concurrent miss has
    // arrived, so the edge must open one connection per miss.
    let barrier = Arc::new(Barrier::new(CONCURRENT));
    let answered = Arc::new(AtomicUsize::new(0));
    let origin = keep_alive_origin(move |_, path| {
        if answered.fetch_add(1, Ordering::SeqCst) < CONCURRENT {
            barrier.wait();
        }
        (page(path), After::Keep)
    });
    let (_edge, proxy) = kept_alive_proxy(0);
    let clients: Vec<_> = (0..CONCURRENT)
        .map(|i| {
            let (addr, url) = (proxy.addr(), origin.url(&format!("/burst/{i}")));
            std::thread::spawn(move || http_get_via_proxy(addr, &url).unwrap().status)
        })
        .collect();
    for client in clients {
        assert_eq!(client.join().unwrap(), StatusCode::OK);
    }
    assert_eq!(origin.accepts(), CONCURRENT);
    for _ in KEPT..CONCURRENT {
        origin.await_edge_close();
    }
    // The four kept connections carry the next misses; nothing reconnects.
    let mut client = ProxyClient::connect(proxy.addr()).unwrap();
    for i in 0..KEPT {
        let path = format!("/after/{i}");
        assert_eq!(
            client.get(&origin.url(&path)).unwrap().body.to_text(),
            page_body(&path)
        );
    }
    assert_eq!(origin.accepts(), CONCURRENT);
    assert!(
        origin.edge_closed.try_recv().is_err(),
        "only the extras were closed"
    );
    drop(client);
    drop(proxy);
    for _ in 0..KEPT {
        origin.await_edge_close();
    }
}

/// One request written raw on `stream`, its reply read back with the
/// one-shot parser — which, unlike the crate's clients, strips no header.
fn raw_exchange(stream: &mut TcpStream, request: &str) -> Response {
    stream.write_all(request.as_bytes()).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Ok(ParseOutcome::Complete { message, .. }) = parse_response(&buf) {
            return message;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "the proxy closed mid-reply");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn a_head_miss_ends_at_its_head_on_both_executors() {
    // An RFC-compliant origin answers HEAD with the GET's framing headers
    // and no body.
    let origin = keep_alive_origin(|method, path| {
        let mut reply = page(path);
        if method == "HEAD" {
            let end = reply.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
            reply.truncate(end + 4);
        }
        (reply, After::Keep)
    });
    let (_edge, service) = edge_service();
    let spliced = one_loop_proxy(service);
    let (_edge, service) = edge_service();
    let pooled = one_loop_proxy(Arc::new(Unplanned(service)));
    for (proxy, executor) in [(&spliced, "splice"), (&pooled, "pool")] {
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(15)))
            .unwrap();
        for i in 0..2 {
            let url = origin.url(&format!("/{executor}/head/{i}"));
            let started = Instant::now();
            let response = raw_exchange(
                &mut stream,
                &format!("HEAD {url} HTTP/1.1\r\nHost: {}\r\n\r\n", origin.addr),
            );
            assert_eq!(response.status, StatusCode::OK, "{executor}");
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "{executor}: the reply waited on a body that never comes ({:?})",
                started.elapsed()
            );
        }
        assert_eq!(proxy.stats().relay_aborts(), 0, "{executor}");
    }
    assert_eq!(spliced.stats().spliced_relays(), 2);
    assert_eq!(spliced.stats().worker_submissions(), 0);
    assert_eq!(
        origin.accepts(),
        2,
        "each executor carried both HEADs on one kept connection"
    );
}

#[test]
fn upstream_hop_by_hop_headers_are_neither_relayed_nor_cached() {
    let origin = keep_alive_origin(|_, _| {
        let reply = b"HTTP/1.1 200 OK\r\nConnection: keep-alive, X-Hop\r\n\
                      Keep-Alive: timeout=5\r\nX-Hop: secret\r\nX-End: kept\r\n\
                      Cache-Control: max-age=600\r\nContent-Length: 4\r\n\r\nbody";
        (reply.to_vec(), After::Keep)
    });
    let url = origin.url("/hop.html");
    let (spliced_edge, service) = edge_service();
    let spliced = one_loop_proxy(service);
    let (pooled_edge, service) = edge_service();
    let pooled = one_loop_proxy(Arc::new(Unplanned(service)));
    for (proxy, edge, executor) in [
        (&spliced, &spliced_edge, "splice"),
        (&pooled, &pooled_edge, "blocking executor"),
    ] {
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        for reply in ["miss", "hit"] {
            let response = raw_exchange(
                &mut stream,
                &format!("GET {url} HTTP/1.1\r\nHost: {}\r\n\r\n", origin.addr),
            );
            assert_eq!(response.body.to_text(), "body", "{executor} {reply}");
            assert_eq!(response.headers.get("X-End"), Some("kept"));
            for hop in ["Connection", "Keep-Alive", "X-Hop"] {
                assert_eq!(
                    response.headers.get(hop),
                    None,
                    "{executor}: the {reply} reply carries the upstream's {hop}"
                );
            }
        }
        assert_eq!(edge.node().cache_stats().hits, 1, "{executor}");
    }
}
