//! The service boundary between transports and everything else.
//!
//! The paper's central architectural claim is that one edge node runs
//! unchanged under Apache, the discrete-event simulator and plain unit tests
//! because the service logic is cleanly separated from transport.  This
//! module makes that seam explicit: every transport — the TCP server in
//! `nakika-server`, the simulator's net layer in `nakika-sim`,
//! and in-memory tests — drives the node through exactly one interface,
//! [`HttpService::call`], and supplies the ambient facts of the exchange
//! (who is asking, what time it is, which exchange this is) through a
//! [`RequestCtx`] minted from a [`Clock`].
//!
//! Failures the *platform* produces (admission rejections, unreachable
//! origins, integrity violations) travel as typed [`NakikaError`] values so
//! each transport decides its own status mapping; failures the *application*
//! produces (a wall script answering 401, an origin answering 404) remain
//! ordinary [`Response`]s.

use nakika_http::{HttpError, Request, Response, StatusCode};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A source of "now" in seconds.
///
/// Transports own time: `nakika-server` uses the wall clock, `nakika-sim`
/// uses virtual time, and tests use a [`ManualClock`] they advance by hand.
/// Node code never consults a clock directly — it reads the arrival time off
/// the [`RequestCtx`] a transport minted.
///
/// ```
/// use nakika_core::service::{Clock, ManualClock};
///
/// let clock = ManualClock::new(100);
/// assert_eq!(clock.now_secs(), 100);
/// clock.advance(20);
/// assert_eq!(clock.now_secs(), 120);
/// ```
pub trait Clock: Send + Sync {
    /// Current time in seconds (epoch chosen by the transport).
    fn now_secs(&self) -> u64;
}

/// A [`Clock`] set and advanced explicitly — the test transport.
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// A manual clock starting at `start_secs`.
    pub fn new(start_secs: u64) -> ManualClock {
        ManualClock(AtomicU64::new(start_secs))
    }

    /// Moves the clock to the absolute time `now_secs`.
    pub fn set(&self, now_secs: u64) {
        self.0.store(now_secs, Ordering::SeqCst);
    }

    /// Advances the clock by `delta_secs`.
    pub fn advance(&self, delta_secs: u64) {
        self.0.fetch_add(delta_secs, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_secs(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Per-exchange context a transport hands to the service stack: who is
/// asking, when the request arrived, and a transport-unique id for log
/// correlation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestCtx {
    /// Address of the client that sent the request.  When this is specified
    /// and the [`Request`]'s own `client_ip` is not, the node fills the
    /// request in from here, so policy predicates see the transport's view.
    pub client_ip: IpAddr,
    /// Time the request arrived, read from the transport's [`Clock`].
    pub arrival_secs: u64,
    /// Identifier of this exchange, unique per [`CtxFactory`]; `0` for
    /// ad-hoc contexts made with [`RequestCtx::at`].
    pub request_id: u64,
}

impl RequestCtx {
    /// An ad-hoc context at `now_secs` from an unspecified client — the
    /// in-memory test transport.
    pub fn at(now_secs: u64) -> RequestCtx {
        RequestCtx {
            client_ip: IpAddr::V4(Ipv4Addr::UNSPECIFIED),
            arrival_secs: now_secs,
            request_id: 0,
        }
    }

    /// Builder-style helper setting the client address.
    pub fn with_client_ip(mut self, ip: IpAddr) -> RequestCtx {
        self.client_ip = ip;
        self
    }

    /// A context at `now_secs` for `request`, adopting its client address.
    pub fn for_request(now_secs: u64, request: &Request) -> RequestCtx {
        RequestCtx::at(now_secs).with_client_ip(request.client_ip)
    }
}

/// Mints [`RequestCtx`] values for a transport: reads arrival time off the
/// transport's [`Clock`] and numbers exchanges sequentially.
pub struct CtxFactory {
    clock: Arc<dyn Clock>,
    next_id: AtomicU64,
}

impl CtxFactory {
    /// A factory over `clock`, numbering exchanges from 1.
    pub fn new(clock: Arc<dyn Clock>) -> CtxFactory {
        CtxFactory {
            clock,
            next_id: AtomicU64::new(1),
        }
    }

    /// Mints the context for one exchange from `client_ip`.
    pub fn make(&self, client_ip: IpAddr) -> RequestCtx {
        RequestCtx {
            client_ip,
            arrival_secs: self.clock.now_secs(),
            request_id: self.next_id.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The factory's clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }
}

/// Errors the Na Kika platform produces while mediating an exchange.
///
/// These replace the scattered `Response::error(...)` escapes: service code
/// states *what went wrong*, and the transport at the outer edge decides the
/// HTTP status mapping (the default mapping is [`NakikaError::status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NakikaError {
    /// The site is being throttled by congestion-based resource control.
    Throttled {
        /// Site whose pipelines are throttled.
        site: String,
    },
    /// The site's pipelines were terminated this control round.
    Terminated {
        /// Site whose pipelines were terminated.
        site: String,
    },
    /// The client exceeded its request-rate budget
    /// ([`RateLimitLayer`](crate::middleware::RateLimitLayer)); maps to
    /// 429 so well-behaved clients know to back off while throttled
    /// *sites* keep their distinct 503.
    RateLimited {
        /// The client that ran out of tokens.
        client: std::net::IpAddr,
    },
    /// An upstream fetch (origin server or peer node) failed.
    Upstream {
        /// URL of the fetch that failed.
        url: String,
        /// Human-readable reason (connect failure, read error, truncation).
        reason: String,
    },
    /// A response failed content-integrity verification (paper §6).
    Integrity {
        /// URL of the offending response.
        url: String,
        /// What the verifier objected to.
        reason: String,
    },
    /// The HTTP substrate rejected a message.
    Http(HttpError),
    /// An invariant was violated inside the node.
    Internal(String),
}

impl NakikaError {
    /// Short machine-readable kind, carried in the `X-Nakika-Error` header.
    pub fn kind(&self) -> &'static str {
        match self {
            NakikaError::Throttled { .. } => "throttled",
            NakikaError::Terminated { .. } => "terminated",
            NakikaError::RateLimited { .. } => "rate-limited",
            NakikaError::Upstream { .. } => "upstream",
            NakikaError::Integrity { .. } => "integrity",
            NakikaError::Http(_) => "http",
            NakikaError::Internal(_) => "internal",
        }
    }

    /// The default status mapping transports apply.
    pub fn status(&self) -> StatusCode {
        match self {
            NakikaError::Throttled { .. } | NakikaError::Terminated { .. } => {
                StatusCode::SERVICE_UNAVAILABLE
            }
            NakikaError::RateLimited { .. } => StatusCode::TOO_MANY_REQUESTS,
            NakikaError::Upstream { .. } | NakikaError::Integrity { .. } => StatusCode::BAD_GATEWAY,
            NakikaError::Http(_) => StatusCode::BAD_REQUEST,
            NakikaError::Internal(_) => StatusCode::INTERNAL_SERVER_ERROR,
        }
    }

    /// Renders the error as an HTTP response under the default mapping,
    /// with the reason in the body and an `X-Nakika-Error` kind header.
    pub fn to_response(&self) -> Response {
        let mut response = Response::error(self.status());
        response.headers.set("X-Nakika-Error", self.kind());
        response.set_body(format!("{self}\n"));
        response
    }
}

impl std::fmt::Display for NakikaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NakikaError::Throttled { site } => write!(f, "server busy: {site} is throttled"),
            NakikaError::Terminated { site } => {
                write!(f, "server busy: pipelines of {site} were terminated")
            }
            NakikaError::RateLimited { client } => {
                write!(f, "too many requests: {client} exceeded its rate budget")
            }
            NakikaError::Upstream { url, reason } => {
                write!(f, "upstream fetch of {url} failed: {reason}")
            }
            NakikaError::Integrity { url, reason } => {
                write!(f, "integrity verification of {url} failed: {reason}")
            }
            NakikaError::Http(e) => write!(f, "http error: {e}"),
            NakikaError::Internal(reason) => write!(f, "internal error: {reason}"),
        }
    }
}

impl std::error::Error for NakikaError {}

impl From<HttpError> for NakikaError {
    fn from(e: HttpError) -> NakikaError {
        NakikaError::Http(e)
    }
}

/// How a readiness-driven transport should schedule one service call.
///
/// An event-loop transport (the reactor in `nakika-server`) runs cheap
/// calls inline — a warm cache hit costs no thread hand-off — but a call
/// that may *block* (a cold origin fetch, a peer fetch, a scripted
/// pipeline that loads scripts) must run off the loop, or it stalls every
/// other connection on that reactor thread.  Services advertise which case
/// a request falls into through [`HttpService::dispatch_hint`].
///
/// The hint is a scheduling heuristic, not a contract about the outcome: a
/// wrongly-`MayBlock` call merely pays one hand-off, while a
/// wrongly-`Inline` call degrades the event loop for the call's duration.
/// Implementations must therefore only answer `Inline` when the call is
/// guaranteed free of blocking I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchHint {
    /// The call performs no blocking I/O and may run on an event-loop
    /// thread (a warm cache hit, an in-memory handler known to be pure).
    Inline,
    /// The call may wait on external I/O (or burn significant CPU) and
    /// must be offloaded by readiness-driven transports.
    MayBlock,
}

/// One upstream a readiness-driven transport may splice a cache miss from:
/// where to connect, what to write, and how to judge the outcome.
///
/// Attempts are tried in order; connection failures, malformed responses
/// and deadline expiries advance to the next attempt until one delivers a
/// usable response head (see [`RelayPlan`]).
pub struct RelayAttempt {
    /// Host to connect to — an IP literal in real deployments (peers
    /// announce base URLs with literal addresses; origins in the bench and
    /// test rigs are loopback).  Transports that cannot resolve this
    /// without blocking fall back to the blocking fetch path ([`HttpService::call`]).
    pub host: String,
    /// Port to connect to.
    pub port: u16,
    /// The serialized request to write upstream, `Connection: close` wire —
    /// spliced upstream sockets are single-exchange by construction.
    pub wire: Vec<u8>,
    /// Label naming the upstream in error messages ("peer http://…" or the
    /// origin URL).
    pub label: String,
    /// When true, a non-success response head is itself an attempt failure
    /// (peer fetches fall back to the origin on any error status); when
    /// false the head is forwarded as-is (origins speak for themselves).
    pub fallback_on_error_status: bool,
    /// Side effects of this attempt failing (peer-miss counters, negative
    /// gossip evidence).  Runs at failure time, never at plan time.
    pub on_fail: Option<Arc<dyn Fn() + Send + Sync>>,
}

/// A side-effect-free description of how a transport can answer one cache
/// miss by relaying bytes straight from an upstream socket — the seam the
/// reactor's event-loop splice hangs off.
///
/// [`HttpService::relay_plan`] *describes* the fetch the service would
/// perform for a request; it must not perform any of it.  A transport that
/// adopts the plan runs [`on_start`](RelayPlan::on_start) once, connects
/// through the [`attempts`](RelayPlan::attempts) in order, passes the
/// winning response through [`finish`](RelayPlan::finish) (which applies
/// cache capture and counters), and renders total failure with
/// [`fail`](RelayPlan::fail).  A transport that does *not* adopt the plan
/// simply calls [`HttpService::call`] as usual — because planning had no
/// side effects, nothing is double-counted.
pub struct RelayPlan {
    /// Upstreams to try, in order: announced peer, consistent-hash owner,
    /// then the origin.
    pub attempts: Vec<RelayAttempt>,
    /// Side effects of the exchange starting (the request counter) —
    /// what [`HttpService::call`] would have done up front.
    pub on_start: Arc<dyn Fn() + Send + Sync>,
    /// Transforms the successful upstream response exactly as the in-call
    /// fetch path would: hit counters keyed by the winning attempt's index,
    /// cache capture (the streaming tee), access logging.
    pub finish: Arc<dyn Fn(Response, usize) -> Response + Send + Sync>,
    /// Renders the client-facing error response after every attempt failed
    /// before delivering a head.
    pub fail: Arc<dyn Fn(&str) -> Response + Send + Sync>,
}

/// The single boundary between transports and everything else: one HTTP
/// exchange in, one HTTP exchange (or platform error) out.
///
/// ```
/// use nakika_core::service::{service_fn, HttpService, RequestCtx};
/// use nakika_http::{Request, Response};
///
/// let echo = service_fn(|req: Request, _ctx: &RequestCtx| {
///     Ok(Response::ok("text/plain", req.uri.path.clone()))
/// });
/// let resp = echo.call(Request::get("http://a.example/hello"), &RequestCtx::at(0)).unwrap();
/// assert_eq!(resp.body.to_text(), "/hello");
/// ```
pub trait HttpService: Send + Sync {
    /// Mediates one exchange described by `req` under the ambient facts in
    /// `ctx`.
    fn call(&self, req: Request, ctx: &RequestCtx) -> Result<Response, NakikaError>;

    /// Classifies the upcoming [`call`](HttpService::call) for `req` so a
    /// readiness-driven transport can decide where to run it (see
    /// [`DispatchHint`]).  The default is conservatively
    /// [`DispatchHint::MayBlock`]: a service that cannot prove its call
    /// free of blocking I/O must not claim the event loop.  The node stack
    /// overrides this with a warm-cache probe so cache hits stay on the
    /// inline fast path.
    fn dispatch_hint(&self, req: &Request, ctx: &RequestCtx) -> DispatchHint {
        let _ = (req, ctx);
        DispatchHint::MayBlock
    }

    /// Describes, without side effects, how a transport could answer `req`
    /// by splicing bytes from an upstream socket it drives itself (see
    /// [`RelayPlan`]).  `None` — the default — means the transport must
    /// run [`call`](HttpService::call) instead: the service cannot express
    /// this exchange as a plain relay (scripted pipelines, middleware
    /// stacks, warm cache hits, non-idempotent methods).
    fn relay_plan(&self, req: &Request, ctx: &RequestCtx) -> Option<RelayPlan> {
        let _ = (req, ctx);
        None
    }
}

impl HttpService for Arc<dyn HttpService> {
    fn call(&self, req: Request, ctx: &RequestCtx) -> Result<Response, NakikaError> {
        (**self).call(req, ctx)
    }

    fn dispatch_hint(&self, req: &Request, ctx: &RequestCtx) -> DispatchHint {
        (**self).dispatch_hint(req, ctx)
    }

    fn relay_plan(&self, req: &Request, ctx: &RequestCtx) -> Option<RelayPlan> {
        (**self).relay_plan(req, ctx)
    }
}

/// An [`HttpService`] built from a closure.
pub struct ServiceFn<F>(pub F);

impl<F> HttpService for ServiceFn<F>
where
    F: Fn(Request, &RequestCtx) -> Result<Response, NakikaError> + Send + Sync,
{
    fn call(&self, req: Request, ctx: &RequestCtx) -> Result<Response, NakikaError> {
        (self.0)(req, ctx)
    }
}

/// Wraps a closure into an `Arc<dyn HttpService>` — the idiomatic way to
/// stand up origin servers in examples and tests.
pub fn service_fn<F>(f: F) -> Arc<dyn HttpService>
where
    F: Fn(Request, &RequestCtx) -> Result<Response, NakikaError> + Send + Sync + 'static,
{
    Arc::new(ServiceFn(f))
}

/// A middleware: wraps an inner [`HttpService`] into a new one.
///
/// Layers compose; [`layered`] and [`crate::builder::NodeBuilder::layer`]
/// apply a list of layers so the *first* layer listed becomes the
/// *outermost* wrapper, matching reading order:
///
/// ```
/// use nakika_core::middleware::AccessLogLayer;
/// use nakika_core::service::{layered, service_fn, HttpService, RequestCtx};
/// use nakika_http::{Request, Response};
/// use nakika_state::AccessLog;
/// use std::sync::Arc;
///
/// let log = Arc::new(AccessLog::new());
/// log.configure_site("a.example", Some("http://a.example/log-sink"));
/// let base = service_fn(|_req, _ctx| Ok(Response::ok("text/plain", "hi")));
/// let stack = layered(base, vec![Box::new(AccessLogLayer::new(log.clone()))]);
/// stack.call(Request::get("http://a.example/"), &RequestCtx::at(7)).unwrap();
/// assert_eq!(log.pending("a.example"), 1);
/// ```
pub trait Layer: Send + Sync {
    /// Wraps `inner`, returning the layered service.
    fn wrap(&self, inner: Arc<dyn HttpService>) -> Arc<dyn HttpService>;

    /// Whether this layer must see complete (buffered) response bodies.
    ///
    /// Since the v2 streaming redesign, responses may carry
    /// [`Body::Stream`](nakika_http::Body) bodies that are pulled through
    /// the transport one bounded chunk at a time.  Most layers — logging,
    /// admission, redirection — operate on heads and declared sizes and
    /// never touch body bytes, so they keep the stream intact.  A layer
    /// that must inspect the whole body (integrity verification hashes it)
    /// returns `true` here, and [`layered`] inserts a buffering point
    /// *beneath* it so the stream is materialized exactly when — and only
    /// when — such a layer demands it.
    fn requires_full_body(&self) -> bool {
        false
    }
}

/// Applies `layers` around `base`; the first layer in the list ends up
/// outermost.
///
/// Layers whose [`Layer::requires_full_body`] is true get a buffering
/// adapter inserted beneath them: the inner service's streamed response is
/// drained to a full body (surfacing mid-stream failures as
/// [`NakikaError::Upstream`]) before the demanding layer runs.  The
/// pipeline therefore buffers only when a layer asks, never by default.
///
/// The layered stack keeps `base`'s [`HttpService::dispatch_hint`]: layers
/// wrap through closures (which cannot forward the hint) but are assumed
/// non-blocking themselves — they log, reject, redirect, or hash bytes the
/// inner call already produced — so the question "may this call block?" is
/// answered by the service at the bottom of the stack.  Note the buffering
/// adapter respects this too: it only ever drains a *stream*, and streams
/// appear only on requests `base` already classified `MayBlock` (a warm
/// cache hit is a buffered body).
pub fn layered(base: Arc<dyn HttpService>, layers: Vec<Box<dyn Layer>>) -> Arc<dyn HttpService> {
    if layers.is_empty() {
        return base;
    }
    let classifier = base.clone();
    let stack = layers.into_iter().rev().fold(base, |inner, layer| {
        let inner = if layer.requires_full_body() {
            buffered_body(inner)
        } else {
            inner
        };
        layer.wrap(inner)
    });
    Arc::new(HintPreserving { stack, classifier })
}

/// The adapter [`layered`] wraps its result in: calls go through the full
/// layer stack, dispatch hints come from the base service (layers are
/// non-blocking, so the base owns the answer).
struct HintPreserving {
    stack: Arc<dyn HttpService>,
    classifier: Arc<dyn HttpService>,
}

impl HttpService for HintPreserving {
    fn call(&self, req: Request, ctx: &RequestCtx) -> Result<Response, NakikaError> {
        self.stack.call(req, ctx)
    }

    fn dispatch_hint(&self, req: &Request, ctx: &RequestCtx) -> DispatchHint {
        self.classifier.dispatch_hint(req, ctx)
    }

    fn relay_plan(&self, req: &Request, ctx: &RequestCtx) -> Option<RelayPlan> {
        // A layered stack must observe every exchange (logging, admission,
        // redirection), and a splice bypasses `call` entirely — so the
        // presence of any layer disables relay planning.  Hints can be
        // forwarded past layers; relays cannot.
        let _ = (req, ctx);
        None
    }
}

/// Wraps `inner` so that streamed response bodies are fully buffered before
/// they propagate outward; a mid-stream failure (for example a peer that
/// closed before `Content-Length` bytes arrived) surfaces as
/// [`NakikaError::Upstream`] instead of a silently truncated body.
pub fn buffered_body(inner: Arc<dyn HttpService>) -> Arc<dyn HttpService> {
    service_fn(move |req: Request, ctx: &RequestCtx| {
        let url = req.uri.to_string();
        let mut response = inner.call(req, ctx)?;
        response.body.buffer().map_err(|e| NakikaError::Upstream {
            url,
            reason: format!("body stream failed: {e}"),
        })?;
        Ok(response)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_sets_and_advances() {
        let clock = ManualClock::new(5);
        assert_eq!(clock.now_secs(), 5);
        clock.advance(10);
        assert_eq!(clock.now_secs(), 15);
        clock.set(3);
        assert_eq!(clock.now_secs(), 3);
    }

    #[test]
    fn ctx_factory_stamps_time_and_numbers_requests() {
        let clock = Arc::new(ManualClock::new(100));
        let factory = CtxFactory::new(clock.clone());
        let a = factory.make("10.0.0.1".parse().unwrap());
        clock.advance(7);
        let b = factory.make("10.0.0.2".parse().unwrap());
        assert_eq!(a.arrival_secs, 100);
        assert_eq!(b.arrival_secs, 107);
        assert_eq!(a.request_id + 1, b.request_id);
    }

    #[test]
    fn error_status_mapping_is_stable() {
        let throttled = NakikaError::Throttled { site: "a".into() };
        assert_eq!(throttled.status(), StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(
            NakikaError::Terminated { site: "a".into() }.status(),
            StatusCode::SERVICE_UNAVAILABLE
        );
        let upstream = NakikaError::Upstream {
            url: "http://o.example/x".into(),
            reason: "connection refused".into(),
        };
        assert_eq!(upstream.status(), StatusCode::BAD_GATEWAY);
        let response = upstream.to_response();
        assert_eq!(response.status, StatusCode::BAD_GATEWAY);
        assert_eq!(response.headers.get("X-Nakika-Error"), Some("upstream"));
        assert!(response.body.to_text().contains("connection refused"));
    }

    #[test]
    fn full_body_layers_see_buffered_streams_others_see_the_stream() {
        use bytes::Bytes;
        use nakika_http::Body;

        struct Probe {
            wants_full: bool,
        }
        impl Layer for Probe {
            fn wrap(&self, inner: Arc<dyn HttpService>) -> Arc<dyn HttpService> {
                let wants_full = self.wants_full;
                service_fn(move |req, ctx| {
                    let resp = inner.call(req, ctx)?;
                    assert_eq!(
                        resp.body.is_stream(),
                        !wants_full,
                        "layer sees a stream exactly when it did not demand buffering"
                    );
                    Ok(resp)
                })
            }
            fn requires_full_body(&self) -> bool {
                self.wants_full
            }
        }

        for wants_full in [false, true] {
            let base = service_fn(|_req, _ctx| {
                let mut resp = Response::ok("text/plain", "");
                resp.body = Body::stream_from_iter(vec![Bytes::from_static(b"data")], Some(4));
                Ok(resp)
            });
            let stack = layered(base, vec![Box::new(Probe { wants_full })]);
            let resp = stack
                .call(Request::get("http://a.example/"), &RequestCtx::at(0))
                .unwrap();
            assert_eq!(resp.body.to_text(), "data");
        }
    }

    #[test]
    fn buffered_body_surfaces_stream_failures_as_upstream() {
        use bytes::Bytes;
        use nakika_http::{Body, ChunkSource};

        struct Failing(bool);
        impl ChunkSource for Failing {
            fn next_chunk(&mut self) -> std::io::Result<Option<Bytes>> {
                if self.0 {
                    return Err(std::io::Error::other("peer closed mid-body"));
                }
                self.0 = true;
                Ok(Some(Bytes::from_static(b"partial")))
            }
        }
        let base = service_fn(|_req, _ctx| {
            let mut resp = Response::ok("text/plain", "");
            resp.body = Body::stream(Failing(false), Some(100));
            Ok(resp)
        });
        let stack = buffered_body(base);
        match stack.call(Request::get("http://a.example/big"), &RequestCtx::at(0)) {
            Err(NakikaError::Upstream { url, reason }) => {
                assert_eq!(url, "http://a.example/big");
                assert!(reason.contains("peer closed"), "reason: {reason}");
            }
            other => panic!("expected an upstream error, got {other:?}"),
        }
    }

    #[test]
    fn service_fn_and_layering_compose() {
        struct Tag(&'static str);
        impl Layer for Tag {
            fn wrap(&self, inner: Arc<dyn HttpService>) -> Arc<dyn HttpService> {
                let name = self.0;
                service_fn(move |req, ctx| {
                    let resp = inner.call(req, ctx)?;
                    let trail = format!("{} {name}", resp.headers.get("X-Trail").unwrap_or(""));
                    Ok(resp.with_header("X-Trail", trail.trim()))
                })
            }
        }
        let base = service_fn(|_req, _ctx| Ok(Response::ok("text/plain", "ok")));
        let stack = layered(base, vec![Box::new(Tag("outer")), Box::new(Tag("inner"))]);
        let resp = stack
            .call(Request::get("http://a.example/"), &RequestCtx::at(0))
            .unwrap();
        // The inner tag runs first on the way out, the outer tag appends last.
        assert_eq!(resp.headers.get("X-Trail"), Some("inner outer"));
    }
}
