//! The real-socket front-end for Na Kika: one HTTP/1.1 server over
//! localhost TCP, [`HttpServer`].
//!
//! The server is readiness-driven: a few event-loop threads multiplex every
//! connection through `epoll`/`poll`, so hundreds of simultaneous
//! keep-alive clients cost slab slots instead of parked threads.  Warm
//! cache hits dispatch inline on the event loop; cache-miss origin relays
//! are spliced on the same loop; service calls that may block and
//! origin-socket body pulls are offloaded to a worker pool (sized by
//! [`ReactorConfig`]) with the connection parked meanwhile, so one slow
//! origin never stalls the other connections.
//!
//! An [`HttpServer`] fronts any [`HttpService`] (an origin built with
//! [`service_fn`](nakika_core::service_fn), or a full node stack from
//! [`NodeBuilder`](nakika_core::NodeBuilder)), mints a
//! [`RequestCtx`](nakika_core::service::RequestCtx) per exchange from the
//! [`WallClock`], and maps typed
//! [`NakikaError`](nakika_core::service::NakikaError)s to status codes at the
//! wire.  `docs/ARCHITECTURE.md`, "The server", is the narrative version.
//!
//! ```no_run
//! use nakika_core::service::service_fn;
//! use nakika_server::{http_get, HttpServer};
//! use nakika_http::Response;
//!
//! let service = service_fn(|_req, _ctx| Ok(Response::ok("text/plain", "hi")));
//! let server = HttpServer::start(0, service)?;
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
pub use reactor::{HttpServer, ReactorConfig};

use nakika_core::service::{Clock, CtxFactory, HttpService};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{SystemTime, UNIX_EPOCH};

/// The server's [`Clock`]: seconds since the Unix epoch.
pub struct WallClock;

impl Clock for WallClock {
    fn now_secs(&self) -> u64 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    }
}

/// Hostile-traffic survival knobs: how long a
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
/// slab slots from abandoned or adversarial peers.
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

    /// Work units handed to the worker pool — one per offloaded service
    /// call or blocking body pull.  Stays 0 for misses served by the
    /// event-loop splice: the zero-hand-off regression test pins this.
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

/// A Na Kika proxy listening on a real socket: an [`HttpServer`] whose
/// service stack is typically a [`NodeBuilder`](nakika_core::NodeBuilder)
/// product with a [`TcpOrigin`] origin, so the node fetches whatever it
/// needs over outbound TCP.  The alias stays only because the frozen
/// benchmark harness (`bench/src/sut.rs`) writes `ProxyServer`.
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

/// The server's blocking-work pool: a fixed set of threads that
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

#[cfg(test)]
mod tests {
    use super::*;
    use nakika_core::service::{service_fn, NakikaError, RequestCtx};
    use nakika_core::NodeBuilder;
    use nakika_http::{Request, Response, StatusCode};

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
}
