//! Real-socket front-ends for Na Kika: two interchangeable HTTP/1.1
//! transports over localhost TCP, selected by [`Transport`].
//!
//! - [`Transport::Threaded`] — the classic blocking, thread-per-connection
//!   server (the paper's prototype embeds the same logic in Apache's prefork
//!   worker processes).  Simple, and a blocking origin fetch only ever stalls
//!   its own connection; concurrency is capped by thread count.
//! - [`Transport::Reactor`] — a readiness-driven non-blocking server
//!   ([`ReactorServer`]): a few event-loop threads multiplex every
//!   connection through `epoll`/`poll`, so hundreds of simultaneous
//!   keep-alive clients cost slab slots instead of parked threads.  Warm
//!   cache hits dispatch inline on the event loop; cold origin fetches and
//!   origin-socket body pulls are offloaded to a worker pool (sized by
//!   [`ReactorConfig`]) with the connection parked meanwhile, so one slow
//!   origin never stalls the other connections.
//!
//! Both transports drive the exact same sans-IO connection state machine and
//! the exact same [`HttpService`] stack: an [`HttpServer`] fronts any service
//! (an origin built with [`service_fn`](nakika_core::service_fn), or a full
//! node stack from [`NodeBuilder`](nakika_core::NodeBuilder)), mints a
//! [`RequestCtx`](nakika_core::service::RequestCtx) per exchange from the
//! [`WallClock`], and maps typed
//! [`NakikaError`](nakika_core::service::NakikaError)s to status codes at the
//! wire.  See `docs/ARCHITECTURE.md` for when to pick which transport.
//!
//! ```no_run
//! use nakika_core::service::service_fn;
//! use nakika_server::{http_get, HttpServer, Transport};
//! use nakika_http::Response;
//!
//! let service = service_fn(|_req, _ctx| Ok(Response::ok("text/plain", "hi")));
//! let server = HttpServer::start_with(0, service, Transport::Reactor)?;
//! let resp = http_get(&format!("{}/x", server.base_url()))?;
//! assert!(resp.status.is_success());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `unsafe` is confined to the readiness FFI in `sys`, which opts back in.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod conn;
mod reactor;
mod relay;
mod sys;
mod timer;

pub use client::{
    http_fetch, http_fetch_streaming, http_fetch_streaming_via_proxy, http_get, http_get_via_proxy,
    ProxyClient, TcpOrigin,
};
pub use conn::OUTPUT_WINDOW_BYTES;
pub use reactor::{ReactorConfig, ReactorServer};

use conn::{HttpConn, OutputGauge};
use nakika_core::service::{Clock, CtxFactory, HttpService};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The real transports' [`Clock`]: seconds since the Unix epoch.
pub struct WallClock;

impl Clock for WallClock {
    fn now_secs(&self) -> u64 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    }
}

/// Hostile-traffic survival knobs shared by both transports: how long a
/// connection may sit without protocol progress, and how many connections
/// the server holds at once.  See `docs/ARCHITECTURE.md`, "Surviving
/// hostile traffic".
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// Per-connection deadline in milliseconds.  A connection that makes
    /// no protocol progress — no complete request parsed, no pending
    /// output drained — for this long is evicted (counted in
    /// [`ServerStats::timeouts`]; a 408 is sent when the connection is at
    /// a request boundary).  Raw bytes are *not* progress: a slow-loris
    /// client dripping header bytes is evicted all the same.  `0` (the
    /// default) means [`DEFAULT_IDLE_TIMEOUT_MS`].
    pub idle_timeout_ms: u64,
    /// Hard cap on concurrently open client connections.  Arrivals past
    /// the cap are answered with a canned `503` and closed immediately
    /// (counted in [`ServerStats::rejected_over_cap`]).  `0` (the
    /// default) means unlimited.
    pub max_connections: usize,
}

/// Default per-connection progress deadline (30 s), generous enough for
/// polite keep-alive reuse and origin stalls, short enough to reclaim
/// slab slots and threads from abandoned or adversarial peers.
pub const DEFAULT_IDLE_TIMEOUT_MS: u64 = 30_000;

impl ServerOptions {
    pub(crate) fn resolved_idle_timeout_ms(&self) -> u64 {
        if self.idle_timeout_ms > 0 {
            self.idle_timeout_ms
        } else {
            DEFAULT_IDLE_TIMEOUT_MS
        }
    }
}

/// Survival counters for one server, in the same always-on spirit as
/// [`CacheStats`](nakika_core::CacheStats): cheap atomics bumped on the
/// serving paths, snapshot by accessor.
#[derive(Debug, Default)]
pub struct ServerStats {
    timeouts: AtomicU64,
    rejected_over_cap: AtomicU64,
    open_connections: AtomicUsize,
    worker_submissions: AtomicU64,
    spliced_relays: AtomicU64,
    relay_aborts: AtomicU64,
}

impl ServerStats {
    /// Connections evicted by the idle/progress deadline.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Work units handed to the reactor's worker pool — one per offloaded
    /// service call or blocking body pull.  Always 0 on the threaded
    /// transport (it has no pool), and stays 0 for reactor misses served by
    /// the event-loop splice: the zero-hand-off regression test pins this.
    pub fn worker_submissions(&self) -> u64 {
        self.worker_submissions.load(Ordering::Relaxed)
    }

    /// Cache-miss responses relayed origin→client entirely on the event
    /// loop (the splice path), counted when the origin's response head is
    /// accepted.
    pub fn spliced_relays(&self) -> u64 {
        self.spliced_relays.load(Ordering::Relaxed)
    }

    /// Spliced relays that failed after the response head was already
    /// committed to the client — the client connection is aborted so the
    /// truncation stays detectable (never a silently short body).
    pub fn relay_aborts(&self) -> u64 {
        self.relay_aborts.load(Ordering::Relaxed)
    }

    /// Connections refused because [`ServerOptions::max_connections`] was
    /// reached.
    pub fn rejected_over_cap(&self) -> u64 {
        self.rejected_over_cap.load(Ordering::Relaxed)
    }

    /// Client connections currently open.
    pub fn open_connections(&self) -> usize {
        self.open_connections.load(Ordering::Relaxed)
    }

    pub(crate) fn note_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_worker_submission(&self) {
        self.worker_submissions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_spliced_relay(&self) {
        self.spliced_relays.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_relay_abort(&self) {
        self.relay_aborts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_over_cap(&self) {
        self.rejected_over_cap.fetch_add(1, Ordering::Relaxed);
    }

    /// Claims a connection slot; `false` (and a bumped rejection counter)
    /// when the cap is already reached.  `cap == 0` means unlimited.
    pub(crate) fn try_open(&self, cap: usize) -> bool {
        let open = self.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
        if cap > 0 && open > cap {
            self.open_connections.fetch_sub(1, Ordering::Relaxed);
            self.note_over_cap();
            return false;
        }
        true
    }

    pub(crate) fn close_connection(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The canned response written to connections refused over the cap; kept
/// static so the rejection path allocates nothing.
pub(crate) const OVER_CAP_RESPONSE: &[u8] =
    b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";

/// The canned response for a connection evicted at a request boundary.
pub(crate) const TIMEOUT_RESPONSE: &[u8] =
    b"HTTP/1.1 408 Request Timeout\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";

/// Which connection-handling strategy a front-end server uses.
///
/// Both transports serve the identical [`HttpService`] stack and speak the
/// same HTTP/1.1 (keep-alive, pipelining, error mapping); they differ only
/// in how connections map onto threads.  See the crate docs and
/// `docs/ARCHITECTURE.md` for the trade-offs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// One blocking thread per connection (the default).
    #[default]
    Threaded,
    /// A few readiness-driven event-loop threads multiplexing every
    /// connection, with blocking origin I/O offloaded to a worker pool
    /// ([`ReactorServer`]; use
    /// [`ReactorServer::start_with_config`] to pin the thread counts).
    Reactor,
}

/// The transport machinery behind a running [`HttpServer`].
enum ServerImpl {
    Threaded {
        shutdown: Arc<AtomicBool>,
        acceptor: Option<JoinHandle<()>>,
        gauge: Arc<OutputGauge>,
        stats: Arc<ServerStats>,
    },
    // Held for its Drop (which joins the reactor threads) and its gauge.
    Reactor {
        server: ReactorServer,
    },
}

/// A minimal HTTP/1.1 server fronting any [`HttpService`], over either
/// [`Transport`].
pub struct HttpServer {
    addr: SocketAddr,
    transport: Transport,
    imp: ServerImpl,
}

impl HttpServer {
    /// Starts a thread-per-connection server on `127.0.0.1:port` (port 0
    /// picks a free port) and serves `service` until the value is dropped.
    pub fn start(port: u16, service: Arc<dyn HttpService>) -> std::io::Result<HttpServer> {
        HttpServer::start_with(port, service, Transport::Threaded)
    }

    /// Starts a server using the given [`Transport`] with default
    /// [`ServerOptions`].
    pub fn start_with(
        port: u16,
        service: Arc<dyn HttpService>,
        transport: Transport,
    ) -> std::io::Result<HttpServer> {
        HttpServer::start_with_options(port, service, transport, ServerOptions::default())
    }

    /// Starts a server using the given [`Transport`] and survival knobs.
    pub fn start_with_options(
        port: u16,
        service: Arc<dyn HttpService>,
        transport: Transport,
        options: ServerOptions,
    ) -> std::io::Result<HttpServer> {
        match transport {
            Transport::Threaded => {
                let listener = TcpListener::bind(("127.0.0.1", port))?;
                let addr = listener.local_addr()?;
                let shutdown = Arc::new(AtomicBool::new(false));
                let shutdown_flag = shutdown.clone();
                let ctx_factory = Arc::new(CtxFactory::new(Arc::new(WallClock)));
                let gauge = Arc::new(OutputGauge::default());
                let conn_gauge = gauge.clone();
                let stats = Arc::new(ServerStats::default());
                let accept_stats = stats.clone();
                // The accept loop blocks — no polling.  Drop wakes it with a
                // bare connect so the flag check below runs one last time.
                let acceptor = std::thread::spawn(move || {
                    while let Ok((mut stream, peer)) = listener.accept() {
                        if shutdown_flag.load(Ordering::Relaxed) {
                            break;
                        }
                        if !accept_stats.try_open(options.max_connections) {
                            // Over the cap: a canned 503 and an immediate
                            // close, without spending a thread on the peer.
                            let _ = stream.write_all(OVER_CAP_RESPONSE);
                            continue;
                        }
                        let service = service.clone();
                        let ctx_factory = ctx_factory.clone();
                        let gauge = conn_gauge.clone();
                        let stats = accept_stats.clone();
                        std::thread::spawn(move || {
                            let _ = serve_connection(
                                stream,
                                peer.ip(),
                                &*service,
                                &ctx_factory,
                                gauge,
                                &stats,
                                options,
                            );
                            stats.close_connection();
                        });
                    }
                });
                Ok(HttpServer {
                    addr,
                    transport,
                    imp: ServerImpl::Threaded {
                        shutdown,
                        acceptor: Some(acceptor),
                        gauge,
                        stats,
                    },
                })
            }
            Transport::Reactor => HttpServer::start_reactor(
                port,
                service,
                ReactorConfig {
                    options,
                    ..ReactorConfig::default()
                },
            ),
        }
    }

    /// Starts a reactor-transport server with an explicit [`ReactorConfig`]
    /// — thread counts, survival knobs, and whether cache-miss origin
    /// relays are spliced on the event loop (`splice_origin`) or offloaded
    /// to the worker pool.
    pub fn start_reactor(
        port: u16,
        service: Arc<dyn HttpService>,
        config: ReactorConfig,
    ) -> std::io::Result<HttpServer> {
        let server = ReactorServer::start_with_config(port, service, config)?;
        Ok(HttpServer {
            addr: server.addr(),
            transport: Transport::Reactor,
            imp: ServerImpl::Reactor { server },
        })
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's base URL (`http://127.0.0.1:port`).
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Which [`Transport`] this server runs on.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// Highest number of serialized-but-unsent bytes any of *this
    /// server's* connections has held — the bounded-output-window
    /// instrument (see [`OUTPUT_WINDOW_BYTES`]).  Scoped per server, so
    /// concurrently running servers (e.g. parallel tests) do not
    /// contaminate each other's measurements.
    pub fn peak_buffered_output(&self) -> usize {
        match &self.imp {
            ServerImpl::Threaded { gauge, .. } => gauge.peak(),
            ServerImpl::Reactor { server } => server.peak_buffered_output(),
        }
    }

    /// This server's survival counters (deadline evictions, over-cap
    /// rejections, open connections).
    pub fn stats(&self) -> &ServerStats {
        match &self.imp {
            ServerImpl::Threaded { stats, .. } => stats,
            ServerImpl::Reactor { server } => server.stats(),
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        // Joining the accept loop makes shutdown deterministic: once drop
        // returns, nothing accepts on the port.  (The reactor variant joins
        // its own threads in ReactorServer::drop.)
        if let ServerImpl::Threaded {
            shutdown, acceptor, ..
        } = &mut self.imp
        {
            shutdown.store(true, Ordering::Relaxed);
            // Wake the blocking accept so the loop observes the flag and exits.
            let _ = TcpStream::connect(self.addr);
            if let Some(handle) = acceptor.take() {
                let _ = handle.join();
            }
        }
    }
}

/// A Na Kika proxy listening on a real socket: an [`HttpServer`] whose
/// service stack is typically a [`NodeBuilder`](nakika_core::NodeBuilder)
/// product with a [`TcpOrigin`] origin, so the node fetches whatever it
/// needs over outbound TCP.
pub type ProxyServer = HttpServer;

/// A job submitted to the [`WorkerPool`].
type PoolJob = Box<dyn FnOnce() + Send>;

/// Shared state between the pool handle and its worker threads.  Plain
/// `std::sync` primitives: the queue is touched once per offloaded origin
/// operation (not per request — warm hits never come here), so a condvar
/// hand-off is plenty.
struct PoolShared {
    queue: std::sync::Mutex<VecDeque<PoolJob>>,
    work_ready: std::sync::Condvar,
    stop: AtomicBool,
}

/// The reactor transport's blocking-work pool: a fixed set of threads that
/// execute offloaded service calls and origin-socket chunk pulls (the
/// [`Work`](conn) units the connection engine refuses to run on an event
/// loop).  Sized by [`ReactorConfig::workers`]; dropping the pool stops
/// the workers after their current job and discards anything still queued
/// (completions for a server being torn down have no audience).
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` (at least 1) worker threads.
    pub(crate) fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            queue: std::sync::Mutex::new(VecDeque::new()),
            work_ready: std::sync::Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || loop {
                    let job = {
                        let mut queue = match shared.queue.lock() {
                            Ok(queue) => queue,
                            Err(_) => return, // a job panicked while queueing: bail
                        };
                        loop {
                            if shared.stop.load(Ordering::Acquire) {
                                return;
                            }
                            if let Some(job) = queue.pop_front() {
                                break job;
                            }
                            queue = match shared.work_ready.wait(queue) {
                                Ok(queue) => queue,
                                Err(_) => return,
                            };
                        }
                    };
                    // Jobs contain their own panic containment (Work::run);
                    // anything else escaping here would poison nothing but
                    // this worker, and the remaining workers keep serving.
                    job();
                })
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Enqueues one job; a no-op after the pool started stopping.
    pub(crate) fn execute(&self, job: PoolJob) {
        if self.shared.stop.load(Ordering::Acquire) {
            return;
        }
        if let Ok(mut queue) = self.shared.queue.lock() {
            queue.push_back(job);
            self.shared.work_ready.notify_one();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The blocking transport's connection loop, over the same sans-IO
/// [`HttpConn`] engine the reactor uses (in its inline mode: service calls
/// and body pulls block this thread, and only this thread): read, feed,
/// dispatch, flush, repeat until a request (or error) closes the session.
///
/// Survival discipline: the loop enforces the same *progress* deadline as
/// the reactor's timer wheel, via the socket timeouts (`SO_RCVTIMEO` /
/// `SO_SNDTIMEO`).  The deadline re-arms when a complete request parses
/// or a response flushes — never on raw bytes — so a slow-loris client
/// dripping header bytes is evicted when its request fails to complete in
/// time, and a slow-read client stalling the response write is evicted by
/// the send timeout.
fn serve_connection(
    mut stream: TcpStream,
    peer: IpAddr,
    service: &dyn HttpService,
    ctx_factory: &CtxFactory,
    gauge: Arc<OutputGauge>,
    stats: &ServerStats,
    options: ServerOptions,
) -> std::io::Result<()> {
    let idle = Duration::from_millis(options.resolved_idle_timeout_ms());
    stream.set_write_timeout(Some(idle))?;
    // Responses flush as one writev of head + body parts below, but a
    // response the engine produces across several pump steps can still
    // leave the socket mid-response between flushes; without nodelay,
    // Nagle would then hold the continuation hostage to the client's
    // delayed ACK (~40 ms per response on a keep-alive connection).
    let _ = stream.set_nodelay(true);
    let mut conn = HttpConn::new(peer, gauge);
    let mut chunk = [0u8; 8192];
    let mut deadline = Instant::now() + idle;
    let mut parsed = 0u64;
    loop {
        conn.dispatch(service, ctx_factory);
        if conn.requests_parsed() > parsed {
            parsed = conn.requests_parsed();
            deadline = Instant::now() + idle;
        }
        let mut flushed = false;
        while conn.wants_write() {
            // One gathering write per pass: the engine keeps a response's
            // head and large body parts as separate runs, and writing them
            // with separate syscalls would emit separate segments.
            let result = {
                let slices = conn.output_slices();
                stream.write_vectored(&slices)
            };
            match result {
                Ok(0) => return Ok(()),
                Ok(n) => {
                    conn.advance_output(n);
                    flushed = true;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // SO_SNDTIMEO expired: the peer held the response
                    // hostage (slow read) for a whole deadline.
                    stats.note_timeout();
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
        if flushed {
            // A drained response is protocol progress.
            deadline = Instant::now() + idle;
        }
        if !conn.is_open() {
            return Ok(());
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            stats.note_timeout();
            // Inline mode flushes whole responses above, so the stream is
            // always at a response boundary here: a 408 cannot corrupt
            // any in-flight framing.
            let _ = stream.write_all(TIMEOUT_RESPONSE);
            return Ok(());
        }
        stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => conn.feed(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                stats.note_timeout();
                let _ = stream.write_all(TIMEOUT_RESPONSE);
                return Ok(());
            }
            Err(_) => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nakika_core::service::{service_fn, NakikaError, RequestCtx};
    use nakika_core::NodeBuilder;
    use nakika_http::{serialize_request, ParseOutcome, Request, Response, StatusCode};

    fn origin_service() -> Arc<dyn HttpService> {
        service_fn(|request: Request, _ctx: &RequestCtx| {
            if request.uri.path.ends_with(".js") {
                return Ok(Response::error(StatusCode::NOT_FOUND));
            }
            Ok(Response::ok(
                "text/html",
                format!("hello from origin: {}", request.uri.path),
            )
            .with_header("Cache-Control", "max-age=60"))
        })
    }

    #[test]
    fn http_server_round_trip() {
        let server = HttpServer::start(0, origin_service()).unwrap();
        let response = http_get(&format!("{}/index.html", server.base_url())).unwrap();
        assert_eq!(response.status, StatusCode::OK);
        assert!(response.body.to_text().contains("/index.html"));
    }

    #[test]
    fn proxy_serves_and_caches_over_real_sockets() {
        let origin = HttpServer::start(0, origin_service()).unwrap();
        let edge = Arc::new(
            NodeBuilder::plain_proxy("tcp-edge")
                .origin(Arc::new(TcpOrigin::new()))
                .build(),
        );
        let proxy = ProxyServer::start(0, edge.service()).unwrap();

        let url = format!("{}/page.html", origin.base_url());
        let first = http_get_via_proxy(proxy.addr(), &url).unwrap();
        assert_eq!(first.status, StatusCode::OK);
        assert!(first.body.to_text().contains("hello from origin"));
        let second = http_get_via_proxy(proxy.addr(), &url).unwrap();
        assert_eq!(second.body.to_text(), first.body.to_text());
        assert!(
            edge.node().cache_stats().hits >= 1,
            "second request hits the cache"
        );
    }

    #[test]
    fn tcp_origin_reuses_keep_alive_connections() {
        let origin = HttpServer::start(0, origin_service()).unwrap();
        let fetcher = TcpOrigin::new();
        let host = origin.addr().ip().to_string();
        let port = origin.addr().port();
        for i in 0..3 {
            let response = fetcher
                .fetch(&Request::get(&format!("{}/r{i}.html", origin.base_url())))
                .unwrap();
            assert_eq!(response.status, StatusCode::OK);
        }
        assert_eq!(
            fetcher.idle_connections(&host, port),
            1,
            "sequential fetches reuse one pooled connection"
        );
    }

    #[test]
    fn upstream_failures_surface_as_typed_errors_and_502() {
        // Nothing listens on this port: the fetch itself reports Upstream...
        let request = Request::get("http://127.0.0.1:1/page");
        match http_fetch(&request) {
            Err(NakikaError::Upstream { reason, .. }) => {
                assert!(reason.contains("connect failed"), "reason: {reason}")
            }
            other => panic!("expected an upstream error, got {other:?}"),
        }
        // ...and a node fronting the dead origin answers 502 with the reason.
        let edge = NodeBuilder::plain_proxy("edge")
            .origin(Arc::new(TcpOrigin::new()))
            .build();
        let response = edge
            .call(request, &RequestCtx::at(10))
            .expect("the node converts origin failures into responses");
        assert_eq!(response.status, StatusCode::BAD_GATEWAY);
        assert_eq!(response.headers.get("X-Nakika-Error"), Some("upstream"));
        assert!(response.body.to_text().contains("connect failed"));
    }

    #[test]
    fn keep_alive_connections_serve_multiple_requests() {
        let server = HttpServer::start(0, origin_service()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        for i in 0..3 {
            let req = Request::get(&format!("http://{}/r{i}", server.addr()));
            stream.write_all(&serialize_request(&req)).unwrap();
            let mut buffer = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                let n = stream.read(&mut chunk).unwrap();
                buffer.extend_from_slice(&chunk[..n]);
                if let Ok(ParseOutcome::Complete { message, .. }) =
                    nakika_http::parse_response(&buffer)
                {
                    assert!(message.body.to_text().contains(&format!("/r{i}")));
                    break;
                }
            }
        }
    }

    #[test]
    fn bad_requests_get_a_400() {
        let server = HttpServer::start(0, origin_service()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NOT A VALID REQUEST\r\n\r\n").unwrap();
        let mut buffer = Vec::new();
        let mut chunk = [0u8; 1024];
        while let Ok(n) = stream.read(&mut chunk) {
            if n == 0 {
                break;
            }
            buffer.extend_from_slice(&chunk[..n]);
        }
        assert!(String::from_utf8_lossy(&buffer).starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn dropped_server_stops_accepting() {
        let server = HttpServer::start(0, origin_service()).unwrap();
        let addr = server.addr();
        // Drop joins the accept loop, so by the time it returns the listener
        // is closed — deterministically, with no timing window to sleep over.
        drop(server);
        let refused = TcpStream::connect(addr)
            .map(|mut s| {
                // If the OS still hands out a backlogged connection, the
                // read must fail/EOF because nothing serves it.
                let _ = s.write_all(b"GET / HTTP/1.1\r\n\r\n");
                let mut buf = [0u8; 16];
                s.set_read_timeout(Some(Duration::from_millis(200)))
                    .unwrap();
                matches!(s.read(&mut buf), Ok(0) | Err(_))
            })
            .unwrap_or(true);
        assert!(refused, "no handler should serve after drop");
    }

    #[test]
    fn proxy_client_reuses_one_connection_for_many_exchanges() {
        let origin = HttpServer::start(0, origin_service()).unwrap();
        let edge = Arc::new(
            NodeBuilder::plain_proxy("client-edge")
                .origin(Arc::new(TcpOrigin::new()))
                .build(),
        );
        let proxy = ProxyServer::start(0, edge.service()).unwrap();
        let mut client = ProxyClient::connect(proxy.addr()).unwrap();
        let url = format!("{}/ka.html", origin.base_url());
        for _ in 0..4 {
            let response = client.get(&url).unwrap();
            assert_eq!(response.status, StatusCode::OK);
        }
        assert_eq!(edge.node().cache_stats().hits, 3);
    }

    #[test]
    fn both_transports_serve_the_same_service_stack() {
        let origin = HttpServer::start(0, origin_service()).unwrap();
        let url = format!("{}/same.html", origin.base_url());
        let mut bodies = Vec::new();
        for transport in [Transport::Threaded, Transport::Reactor] {
            let edge = Arc::new(
                NodeBuilder::plain_proxy("transport-edge")
                    .origin(Arc::new(TcpOrigin::new()))
                    .build(),
            );
            let proxy = ProxyServer::start_with(0, edge.service(), transport).unwrap();
            assert_eq!(proxy.transport(), transport);
            let first = http_get_via_proxy(proxy.addr(), &url).unwrap();
            let second = http_get_via_proxy(proxy.addr(), &url).unwrap();
            assert_eq!(first.body.to_text(), second.body.to_text());
            assert!(edge.node().cache_stats().hits >= 1);
            bodies.push(first.body.to_text());
        }
        assert_eq!(bodies[0], bodies[1], "transports are byte-compatible");
    }
}
