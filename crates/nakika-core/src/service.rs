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
//! origins) travel as typed [`NakikaError`] values so each transport
//! decides its own status mapping; failures the *application* produces (a
//! wall script answering 401, an origin answering 404) remain ordinary
//! [`Response`]s.

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

/// Per-exchange context a transport hands to the service: who is
/// asking, when the request arrived, and a transport-unique id for log
/// correlation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestCtx {
    /// Address of the client that sent the request.  When this is specified
    /// and the [`Request`]'s own `client_ip` is not, the node fills the
    /// request in from here, so policy predicates see the transport's view.
    pub(crate) client_ip: IpAddr,
    /// Time the request arrived, read from the transport's [`Clock`].
    pub(crate) arrival_secs: u64,
    /// Identifier of this exchange, unique per [`CtxFactory`]; `0` for
    /// ad-hoc contexts made with [`RequestCtx::at`].
    pub(crate) request_id: u64,
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
    /// An upstream fetch (origin server or peer node) failed.
    Upstream {
        /// URL of the fetch that failed.
        url: String,
        /// Human-readable reason (connect failure, read error, truncation).
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
            NakikaError::Upstream { .. } => "upstream",
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
            NakikaError::Upstream { .. } => StatusCode::BAD_GATEWAY,
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
            NakikaError::Upstream { url, reason } => {
                write!(f, "upstream fetch of {url} failed: {reason}")
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
    /// Host to connect to — an IP literal in real deployments (peers join
    /// the roster with literal base URLs; origins in the bench and test
    /// rigs are loopback).  Transports that cannot resolve this
    /// without blocking fall back to the blocking fetch path ([`HttpService::call`]).
    pub host: String,
    /// Port to connect to.
    pub port: u16,
    /// The serialized request to write upstream.  It carries no
    /// `Connection` header: whether the socket outlives the exchange is the
    /// transport's business (the reactor parks a reusable one for the next
    /// miss to the same `host:port`).
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
    /// Upstreams to try, in order: the key's consistent-hash owner, then
    /// the origin.
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
    /// this exchange as a plain relay (scripted pipelines, owner
    /// redirects, warm cache hits, non-idempotent methods).
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
pub(crate) struct ServiceFn<F>(pub(crate) F);

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
}
